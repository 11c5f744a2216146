"""Adaptive repartitioning under skew: the mid-stream rebalancer.

Five invariant families:

* **equivalence** — migration relabels *where* operators execute, never
  *what* they compute: streaming with rebalancing stays byte-identical
  to the static one-shot run, and parallel execution stays fully
  identical (CPU and network included) to in-process, because both make
  the same migration decisions from the same accounting;
* **planning** — the greedy peak-shaver respects ``max_moves``, commits
  all-or-nothing against ``min_gain``, and falls back to a partitioning
  advisory when the hot co-movement group is atomic;
* **membership** — ``leave`` faults force evacuation of the departing
  host's partitions (ahead of trigger and cooldown), ``join`` faults
  keep a host's partitions off it until it arrives;
* **accounting** — state handoffs surface as ``state_rows`` on the
  migration record, and every protocol step lands in
  ``MetricsRecorder.rebalance_counts`` and the event trace;
* **payoff** — on a Zipf-skewed trace the rebalancer cuts the
  steady-state peak host load by at least 30 %, whether the hot spot
  stays put or drifts.
"""

import io
import json

import pytest

from repro.cluster import (
    ClusterSimulator,
    FaultPlan,
    HashSplitter,
    RebalancePolicy,
)
from repro.distopt import DistributedOptimizer, Placement
from repro.partitioning import PartitioningSet
from repro.runtime import Fault
from repro.runtime.flowcontrol import PartitionDirectory
from repro.runtime.rebalance import Migration, RebalanceController
from repro.traces import skewed_trace
from repro.workloads import (
    Configuration,
    approx_heavy_catalog,
    complex_catalog,
    run_configuration,
    sliding_flows_catalog,
    suspicious_flows_catalog,
)

from tests.parity import (
    SOURCES,
    assert_rebalanced_matches_oneshot,
    assert_same_outputs,
    assert_same_simulation,
    deploy,
    skewed_packets,
    tcp_source,
)

PS = PartitioningSet.of("srcIP")

AGGRESSIVE = RebalancePolicy(threshold=1.1, window=1, cooldown=1)


def _cluster(hosts=3, per_host=2, merge=False, catalog=None,
             deliver=None, record_events=False):
    _, dag = (catalog or suspicious_flows_catalog)()
    placement = Placement(hosts, per_host, merge_local_partitions=merge)
    plan = DistributedOptimizer(dag, placement, PS, deliver=deliver).optimize()
    splitter = HashSplitter(placement.num_partitions, PS)
    sim = ClusterSimulator(
        dag, plan, stream_rate=1000, record_events=record_events
    )
    return dag, plan, splitter, sim


# -- policy validation ----------------------------------------------------------


class TestRebalancePolicy:
    def test_defaults_are_valid(self):
        policy = RebalancePolicy()
        assert policy.threshold == 1.25
        assert "cooldown 2" in policy.describe()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"threshold": 0.9}, "max/mean"),
            ({"window": 0}, "window"),
            ({"cooldown": -1}, "cooldown"),
            ({"max_moves": 0}, "max_moves"),
            ({"min_gain": 1.0}, "min_gain"),
            ({"min_gain": -0.1}, "min_gain"),
            ({"smoothing": 0.0}, "smoothing"),
            ({"smoothing": 1.5}, "smoothing"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RebalancePolicy(**kwargs)


# -- the partition directory ----------------------------------------------------


class TestPartitionDirectory:
    def test_seeded_from_static_layout(self):
        _, plan, _, _ = _cluster(hosts=2, per_host=2)
        directory = PartitionDirectory(plan)
        for partition in range(plan.num_partitions):
            assert directory.host_of(partition) == plan.host_of_partition(
                partition
            )
        assert directory.moved == {}

    def test_assign_moves_current_not_static(self):
        _, plan, _, _ = _cluster(hosts=2, per_host=2)
        directory = PartitionDirectory(plan)
        home = directory.static_host(0)
        away = 1 - home
        directory.assign(0, away)
        assert directory.host_of(0) == away
        assert directory.static_host(0) == home
        assert directory.moved == {0: away}
        assert 0 in directory.partitions_on(away)
        # moving it home again clears the delta
        directory.assign(0, home)
        assert directory.moved == {}

    def test_assign_rejects_unknown_host(self):
        _, plan, _, _ = _cluster(hosts=2, per_host=2)
        with pytest.raises(ValueError, match="not in the cluster"):
            PartitionDirectory(plan).assign(0, 9)


# -- the greedy planner ---------------------------------------------------------


def _controller(policy=AGGRESSIVE, hosts=2, per_host=2, merge=False):
    dag, plan, splitter, sim = _cluster(hosts=hosts, per_host=per_host,
                                        merge=merge)
    return plan, RebalanceController(
        plan, policy, sim.metrics, lambda node: 0.0, dag=dag,
        partitioning=splitter.partitioning_set,
    )


class TestPlanner:
    def test_moves_hot_partition_to_cool_host(self):
        plan, controller = _controller()
        # partitions 0,1 live on host 0; 2,3 on host 1 (2 per host)
        controller._weights = [10.0, 2.0, 1.0, 1.0]
        present = {0, 1}
        moves = controller._balance_moves(
            controller._host_loads(present), present, "rebalance"
        )
        assert [(m.partitions, m.src, m.dst) for m in moves] == [((1,), 0, 1)]

    def test_min_gain_is_all_or_nothing(self):
        plan, controller = _controller(
            policy=RebalancePolicy(threshold=1.1, min_gain=0.5)
        )
        controller._weights = [10.0, 2.0, 1.0, 1.0]
        present = {0, 1}
        # the best plan only shaves the peak 12 -> 10 (17%), under the
        # 50% bar: the whole plan is rejected, not trimmed
        assert controller._balance_moves(
            controller._host_loads(present), present, "rebalance"
        ) == []

    def test_max_moves_caps_one_pass(self):
        plan, controller = _controller(
            policy=RebalancePolicy(threshold=1.1, max_moves=1, min_gain=0.0),
            hosts=2, per_host=3,
        )
        # both of host 0's trailing partitions would profitably move
        controller._weights = [6.0, 5.0, 5.0, 1.0, 1.0, 1.0]
        present = {0, 1}
        moves = controller._balance_moves(
            controller._host_loads(present), present, "rebalance"
        )
        assert len(moves) == 1

    def test_merged_partitions_move_as_a_group(self):
        # merge_local_partitions=True binds each host's partitions into
        # one co-movement group via the host-local merge node
        plan, controller = _controller(merge=True, hosts=3)
        assert sorted(controller._groups) == [
            tuple(sorted(
                p for p in range(plan.num_partitions)
                if plan.host_of_partition(p) == host
            ))
            for host in range(3)
        ]


# -- end-to-end behaviour -------------------------------------------------------


class TestRebalancedRun:
    def test_migrates_and_matches_oneshot(self):
        _, stream = assert_rebalanced_matches_oneshot("suspicious", 1, "row")
        log = stream.rebalance
        assert log.triggers >= 1
        assert log.migrations
        assert all(m.reason == "rebalance" for m in log.migrations)
        # the final assignment reflects the last migration of each group
        for move in log.migrations:
            for partition in move.partitions:
                last = [
                    m for m in log.migrations if partition in m.partitions
                ][-1]
                assert log.assignment[partition] == last.dst
        described = log.describe()
        assert "migration" in described and "h" in described

    @pytest.mark.parametrize("source", SOURCES)
    def test_parallel_matches_inprocess_exactly(self, source):
        """Both executions make the same migration decisions from the
        same accounting, so even CPU and network are identical."""
        runs = []
        for execution in ("inprocess", "parallel"):
            _, _, splitter, sim = _cluster()
            runs.append(
                sim.run_streaming(
                    tcp_source(skewed_packets(1), source), splitter, 10.0,
                    rebalance=AGGRESSIVE, execution=execution, workers=2,
                )
            )
        inprocess, parallel = runs
        assert inprocess.rebalance.migrations
        assert_same_simulation(inprocess, parallel)
        assert [m.describe() for m in inprocess.rebalance.migrations] == [
            m.describe() for m in parallel.rebalance.migrations
        ]

    def test_state_handoff_travels_with_migration(self):
        """A join's buffered rows ride the migration and are metered."""
        _, _, splitter, sim = _cluster(
            catalog=complex_catalog,
            deliver=("flows", "heavy_flows", "flow_pairs"),
        )
        stream = sim.run_streaming(
            {"TCP": skewed_packets(1)}, splitter, 10.0, rebalance=AGGRESSIVE
        )
        handoffs = [m for m in stream.rebalance.migrations if m.state_rows]
        assert handoffs, "no migration carried buffered state"
        assert "buffered rows" in handoffs[0].describe()

    def test_advisory_when_hot_group_is_atomic(self):
        """One partition per host: migration can only swap peaks, so the
        controller recommends a finer compatible partitioning instead —
        once, not once per trigger."""
        _, _, splitter, sim = _cluster(hosts=2, per_host=1)
        stream = sim.run_streaming(
            {"TCP": skewed_packets(1)}, splitter, 10.0, rebalance=AGGRESSIVE
        )
        log = stream.rebalance
        assert log.triggers > 1
        assert log.migrations == []
        assert len(log.advisories) == 1
        assert "atomic" in log.advisories[0]
        assert "finer" in log.advisories[0]
        assert "advice" in log.describe()

    def test_protocol_steps_hit_counts_and_event_trace(self):
        _, _, splitter, sim = _cluster(record_events=True)
        sim.run_streaming(
            {"TCP": skewed_packets(1)}, splitter, 10.0, rebalance=AGGRESSIVE
        )
        counts = sim.metrics.rebalance_counts
        assert counts["trigger"] >= 1
        assert counts["plan"] >= 1
        assert counts["migration"] >= 1
        assert counts["complete"] == counts["plan"]
        handle = io.StringIO()
        sim.metrics.dump_events(handle)
        events = [
            json.loads(line)
            for line in handle.getvalue().splitlines()
        ]
        rebalance = [e for e in events if e["event"] == "rebalance"]
        migrations = [e for e in rebalance if e["action"] == "migration"]
        assert migrations
        assert {"partitions", "src", "dst", "reason", "state_rows"} <= set(
            migrations[0]
        )


# -- windowed state handoff -------------------------------------------------------


def _deliveries(result):
    """Delivered rows, in order and by ``repr`` (``2`` is not ``2.0``),
    plus per-node output counts."""
    return repr(dict(result.outputs)), result.node_output_counts


#: windowed variant -> (catalog, partitioning that makes the plan take
#: it and the aggressive policy migrate it)
WINDOWED = {
    "full": (sliding_flows_catalog, PS),
    "super": (sliding_flows_catalog, PartitioningSet.of("destIP")),
    "sketch_super": (approx_heavy_catalog, PartitioningSet.of("destPort")),
}


class TestWindowedStateHandoff:
    """Migration is bookkeeping: a run whose partitions migrate mid-run,
    while windowed nodes hold state, delivers what the static run does."""

    @pytest.mark.parametrize("variant", sorted(WINDOWED))
    def test_handoff_mid_run_is_byte_identical(self, variant):
        catalog_fn, ps = WINDOWED[variant]
        # One subplan per partition: the granularity the directory
        # migrates at.
        sim, splitter = deploy(catalog_fn()[1], 3, ps, merge_local=False)
        packets = skewed_packets(3)
        static = sim.run_streaming({"TCP": packets}, splitter, 10.0)
        moved = sim.run_streaming(
            {"TCP": packets}, splitter, 10.0, rebalance=AGGRESSIVE
        )
        assert variant in set(moved.node_variants.values())
        assert moved.rebalance.migrations
        assert _deliveries(moved) == _deliveries(static)

    def test_pool_handoff_is_byte_identical(self):
        """On the 2-worker pool a migration between hosts of different
        workers (hosts alternate between the two) prices the windowed
        state it hands off and changes no delivered row."""
        _, _, splitter, sim = _cluster(catalog=sliding_flows_catalog)
        packets = skewed_packets(3)
        static = sim.run_streaming({"TCP": packets}, splitter, 10.0)
        moved = sim.run_streaming(
            {"TCP": packets}, splitter, 10.0, rebalance=AGGRESSIVE,
            execution="parallel", workers=2,
        )
        assert moved.execution == "parallel"
        assert any(
            move.state_rows and move.src % 2 != move.dst % 2
            for move in moved.rebalance.migrations
        )
        assert _deliveries(moved) == _deliveries(static)

    def test_migrated_node_keeps_its_worker(self):
        """Nothing moves between processes: across migrations between
        hosts of different workers, each node's ``node`` events carry
        one pid for the whole run."""
        _, _, splitter, sim = _cluster(
            catalog=sliding_flows_catalog, record_events=True
        )
        moved = sim.run_streaming(
            {"TCP": skewed_packets(3)}, splitter, 10.0, rebalance=AGGRESSIVE,
            execution="parallel", workers=2,
        )
        assert any(
            move.src % 2 != move.dst % 2 for move in moved.rebalance.migrations
        )
        pids = {}
        for event in sim.metrics.events:
            if event["event"] == "node":
                pids.setdefault(event["node"], set()).add(event["pid"])
        assert pids
        assert all(len(seen) == 1 for seen in pids.values()), pids


# -- the steady-state payoff ----------------------------------------------------

#: Zipf-flavored partition weights: half the stream lands on host 0's
#: two partitions, the rest spreads thin.  Static host loads are then
#: (0.50, 0.18, 0.16, 0.16) — max/mean 2.0 — while a rebalancer that
#: splits the two hot partitions across hosts can approach ~1.2.
SKEW_WEIGHTS = [0.30, 0.20, 0.10, 0.08, 0.08, 0.08, 0.08, 0.08]


def _steady_max_over_mean(result):
    """Host-CPU max/mean over the run's second half (post-convergence)."""
    start = result.timeline.num_epochs // 2
    loads = [sum(series[start:]) for series in result.timeline.host_cpu]
    return max(loads) / (sum(loads) / len(loads))


def _peak_load_cut(policy, drift_period):
    """The fraction of the static run's steady-state host max/mean that
    ``policy`` removes, on §6.1's suspicious-flows query over a 40k-row
    ``skewed_trace`` (4 columnar hosts x 2 partitions; with
    ``drift_period`` the hot spot rotates every that-many epochs).

    Migration relabels execution, never the dataflow, so both runs must
    agree on outputs and per-node counts.  The trace carries no attack
    pattern, so the delivered output is empty and the counts — every row
    reached its partition's operator — are what that comparison pins
    here; equality of non-empty outputs is the rebalance sweep's job.
    """
    trace = skewed_trace(
        PS, len(SKEW_WEIGHTS), SKEW_WEIGHTS, drift_period=drift_period
    )
    runs = []
    for rebalance in (None, policy):
        _, _, splitter, sim = _cluster(hosts=4)
        runs.append(
            sim.run_streaming(
                {"TCP": trace.column_batch()}, splitter, trace.duration_sec,
                rebalance=rebalance,
            )
        )
    static, rebalanced = runs
    assert_same_outputs(static, rebalanced)
    before = _steady_max_over_mean(static)
    return (before - _steady_max_over_mean(rebalanced)) / before


def _assert_cuts_peak_load(policy, drift_period):
    cut = _peak_load_cut(policy, drift_period)
    assert cut >= 0.30, (
        f"rebalancing cut steady-state host max/mean by {100 * cut:.1f} %, "
        f"floor 30 %"
    )


class TestPayoff:
    @pytest.mark.parametrize("drift_period", (None, 5), ids=("steady", "drift"))
    def test_cuts_steady_state_peak_load(self, drift_period):
        # One-epoch trigger window and cooldown: the drift scenario moves
        # the hot spot every 5 epochs, so a laggier policy spends half of
        # each period converging instead of balanced.
        _assert_cuts_peak_load(
            RebalancePolicy(threshold=1.15, window=1, cooldown=1), drift_period
        )

    def test_floor_rejects_a_trigger_that_never_fires(self):
        # max/mean cannot exceed the host count, so this policy is inert
        with pytest.raises(AssertionError, match=r"by 0\.0 %"):
            _assert_cuts_peak_load(RebalancePolicy(threshold=100.0), None)


# -- elastic membership ---------------------------------------------------------


class TestMembership:
    def test_leave_evacuates_and_preserves_outputs(self):
        packets = skewed_packets(1)
        _, _, splitter, sim = _cluster()
        oneshot = sim.run({"TCP": packets}, splitter, 10.0)
        _, _, _, sim2 = _cluster()
        stream = sim2.run_streaming(
            {"TCP": packets}, splitter, 10.0, rebalance=AGGRESSIVE,
            faults=FaultPlan.of(Fault("leave", 1, 2, 3)),
        )
        evacuations = [
            m for m in stream.rebalance.migrations if m.reason == "evacuate"
        ]
        assert evacuations
        assert all(m.src == 1 and m.dst != 1 for m in evacuations)
        assert all(m.step == 2 for m in evacuations)
        assert_same_outputs(oneshot, stream)

    def test_join_keeps_host_empty_until_arrival(self):
        packets = skewed_packets(1)
        _, _, splitter, sim = _cluster()
        oneshot = sim.run({"TCP": packets}, splitter, 10.0)
        _, _, _, sim2 = _cluster()
        stream = sim2.run_streaming(
            {"TCP": packets}, splitter, 10.0, rebalance=AGGRESSIVE,
            faults=FaultPlan.of(Fault("join", 2, 3, 3)),
        )
        evacuations = [
            m for m in stream.rebalance.migrations if m.reason == "evacuate"
        ]
        # host 2's static partitions leave it at step 0, before any rows
        assert evacuations
        assert all(m.src == 2 and m.step == 0 for m in evacuations)
        # nothing migrates *to* host 2 before it joins at step 3
        assert all(
            m.step >= 3
            for m in stream.rebalance.migrations
            if m.dst == 2
        )
        assert_same_outputs(oneshot, stream)

    def test_aggregator_cannot_leave(self):
        _, plan, splitter, sim = _cluster()
        with pytest.raises(ValueError, match="aggregator"):
            sim.run_streaming(
                {"TCP": skewed_packets(1)}, splitter, 10.0,
                rebalance=AGGRESSIVE,
                faults=FaultPlan.of(Fault("leave", plan.aggregator, 1, 2)),
            )

    def test_membership_requires_rebalance_policy(self):
        _, _, splitter, sim = _cluster()
        with pytest.raises(ValueError, match="rebalance policy"):
            sim.run_streaming(
                {"TCP": skewed_packets(1)}, splitter, 10.0,
                faults=FaultPlan.of(Fault("leave", 1, 2, 3)),
            )


# -- guard rails ----------------------------------------------------------------


class TestGuards:
    def test_fault_outside_cluster_is_rejected(self):
        _, _, splitter, sim = _cluster(hosts=2)
        with pytest.raises(ValueError, match=r"valid indices 0\.\.1"):
            sim.run_streaming(
                {"TCP": skewed_packets(1)}, splitter, 10.0,
                faults=FaultPlan.of(Fault("skip", 9, 0, 0)),
            )

    def test_rebalance_requires_streaming(self, suspicious_dag, tiny_trace):
        with pytest.raises(ValueError, match="streaming"):
            run_configuration(
                suspicious_dag,
                tiny_trace,
                Configuration("partitioned", PS),
                2,
                streaming=False,
                rebalance=RebalancePolicy(),
            )

    def test_migration_describe(self):
        move = Migration((2, 3), 0, 1, "rebalance", step=4, state_rows=6)
        text = move.describe()
        assert "step 4" in text
        assert "2,3" in text
        assert "h0 -> h1" in text
        assert "6 buffered rows" in text
