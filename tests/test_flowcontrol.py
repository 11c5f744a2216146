"""Backpressure and fault injection: policies, accounting, regressions.

Three invariant families:

* **conservation** — per host, per epoch:
  ``prior backlog + rows_in == rows_delivered + rows_dropped + backlog``,
  with no backlog surviving the final flush (``HostFlowStats.conserves``);
* **liveness** — a host skipping epochs (or delivering late) must never
  stall watermarks: the run completes, the timeline covers every epoch;
* **losslessness** — the ``block`` policy and ``delay`` faults reorder
  delivery but lose nothing, so streaming output stays exactly the
  one-shot output.
"""

import io
import json

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, QueuePolicy, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.partitioning import PartitioningSet
from repro.plan import QueryDag
from repro.runtime import BLOCK, DROP_NEWEST, DROP_OLDEST, Fault, FaultPlan
from repro.workloads import (
    experiment1_configurations,
    format_overload,
    overload_sweep,
    suspicious_flows_catalog,
)

from tests.parity import (
    SOURCES,
    assert_same_outputs,
    assert_same_simulation,
    deploy,
    tcp_source,
)


@pytest.fixture(scope="module")
def suspicious():
    _, dag = suspicious_flows_catalog()
    return dag


PS = PartitioningSet.of("srcIP")


# -- policy and fault validation ------------------------------------------------


class TestQueuePolicy:
    def test_modes_and_lossless(self):
        assert QueuePolicy(10).mode == BLOCK
        assert QueuePolicy(10).lossless
        assert not QueuePolicy(10, DROP_NEWEST).lossless
        assert not QueuePolicy(10, DROP_OLDEST).lossless

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            QueuePolicy(0)
        with pytest.raises(ValueError, match="capacity"):
            QueuePolicy(-5, DROP_NEWEST)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            QueuePolicy(10, "spill-to-disk")

    def test_describe(self):
        assert "drop-oldest" in QueuePolicy(7, DROP_OLDEST).describe()


class TestFault:
    def test_parse_round_trips(self):
        assert Fault.parse("skip:1:2-4") == Fault("skip", 1, 2, 4)
        assert Fault.parse("duplicate:2:5") == Fault("duplicate", 2, 5, 5)
        assert Fault.parse("delay:0:1-3:2") == Fault("delay", 0, 1, 3, delay=2)

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus:1:2", "skip:x:2", "skip:1", "skip:1:4-2", "delay:0:1-3",
            "a:b:c:d:e",
            # a dangling range must not read as its first epoch alone
            "skip:1:2-",
        ],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            Fault.parse(spec)

    def test_active_range(self):
        fault = Fault("skip", 0, 2, 4)
        assert not fault.active(1)
        assert fault.active(2) and fault.active(4)
        assert not fault.active(5)

    def test_plan_lossless_and_lookup(self):
        plan = FaultPlan.parse(["delay:0:1:1", "duplicate:1:2"])
        assert plan and plan.lossless
        assert plan.active("delay", 0, 1) is not None
        assert plan.active("delay", 1, 1) is None
        assert not FaultPlan().lossless or not FaultPlan()
        assert not FaultPlan.of(Fault("skip", 0, 0, 0)).lossless

    def test_parse_membership_kinds(self):
        assert Fault.parse("leave:1:3-6") == Fault("leave", 1, 3, 6)
        assert Fault.parse("join:3:4") == Fault("join", 3, 4, 4)
        plan = FaultPlan.parse(["leave:1:3-6", "skip:0:1"])
        assert plan.membership == (Fault("leave", 1, 3, 6),)

    def test_validate_accepts_in_range_hosts(self):
        FaultPlan.parse(["skip:0:1", "delay:2:1-3:2"]).validate(num_hosts=3)

    def test_validate_rejects_host_outside_cluster(self):
        """A fault aimed past the last host would silently never fire —
        the run would read as fault-tolerant with nothing injected."""
        plan = FaultPlan.of(Fault("skip", 3, 2, 4))
        with pytest.raises(ValueError) as excinfo:
            plan.validate(num_hosts=2)
        message = str(excinfo.value)
        assert "skip:3:2-4" in message
        assert "valid indices 0..1" in message

    def test_simulator_validates_fault_plan(self, tiny_trace, suspicious):
        sim, splitter = deploy(suspicious, 2, PS)
        with pytest.raises(ValueError, match=r"valid indices 0\.\.1"):
            sim.run_streaming(
                {"TCP": tiny_trace.packets},
                splitter,
                10.0,
                faults=FaultPlan.of(Fault("skip", 5, 0, 0)),
            )


# -- flow-control semantics -----------------------------------------------------


@pytest.mark.parametrize("source", SOURCES)
def test_block_policy_is_lossless_and_exact(source, tiny_trace, suspicious):
    """A tight block queue defers rows across epochs yet changes nothing."""
    sim, splitter = deploy(suspicious, 3, PS)
    sources = tcp_source(tiny_trace.packets, source)
    oneshot = sim.run(sources, splitter, 10.0)
    stream = sim.run_streaming(
        sources, splitter, 10.0, queue_policy=QueuePolicy(40, BLOCK)
    )
    assert_same_simulation(oneshot, stream)
    for stats in stream.flow_stats.values():
        assert stats.conserves()
        assert stats.total_dropped == 0
        assert stats.rows_queued[-1] == 0  # flush drained the backlog
    # the tight budget actually exercised deferral, not just accounting
    assert any(max(s.rows_queued) > 0 for s in stream.flow_stats.values())


@pytest.mark.parametrize("mode", (DROP_NEWEST, DROP_OLDEST))
@pytest.mark.parametrize("source", SOURCES)
def test_drop_modes_shed_load_and_conserve(source, mode, tiny_trace, suspicious):
    sim, splitter = deploy(suspicious, 2, PS)
    stream = sim.run_streaming(
        tcp_source(tiny_trace.packets, source),
        splitter,
        10.0,
        queue_policy=QueuePolicy(40, mode),
    )
    total_dropped = sum(s.total_dropped for s in stream.flow_stats.values())
    assert total_dropped > 0
    for host, stats in stream.flow_stats.items():
        assert stats.conserves(), host
        assert stats.total_in == stats.total_delivered + stats.total_dropped
    assert stream.rows_dropped(0) == stream.flow_stats[0].total_dropped


@pytest.mark.parametrize("mode", (BLOCK, DROP_NEWEST, DROP_OLDEST))
def test_round_robin_run_leaves_the_trace_intact(mode, tiny_trace, suspicious):
    """Round-robin partitions are views of the caller's columns; queueing,
    dropping and the kernels must read them, never write them."""
    sim, splitter = deploy(suspicious, 2, None)
    batch = tiny_trace.column_batch()
    before = {name: column.copy() for name, column in batch.columns.items()}
    stream = sim.run_streaming(
        {"TCP": batch}, splitter, 10.0, queue_policy=QueuePolicy(40, mode)
    )
    assert any(
        max(s.rows_queued) > 0 or s.total_dropped > 0
        for s in stream.flow_stats.values()
    )
    for name, column in before.items():
        assert batch.column(name).flags.writeable
        assert np.array_equal(batch.column(name), column), name


def test_default_streaming_has_no_flow_stats(tiny_trace, suspicious):
    sim, splitter = deploy(suspicious, 2, None)
    stream = sim.run_streaming({"TCP": tiny_trace.packets}, splitter, 10.0)
    assert stream.flow_stats == {}
    assert stream.rows_dropped(0) == 0


def test_flow_control_requires_streaming(tiny_trace, suspicious):
    sim, splitter = deploy(suspicious, 2, None)
    with pytest.raises(ValueError, match="streaming"):
        sim.session.execute(
            {"TCP": tiny_trace.packets},
            splitter,
            10.0,
            queue_policy=QueuePolicy(40),
        )


# -- fault regressions ----------------------------------------------------------


@pytest.mark.parametrize("source", SOURCES)
def test_skip_fault_never_stalls_watermarks(source, tiny_trace, suspicious):
    """A host that misses epochs loses rows but must not wedge the run."""
    epochs = sorted({p["time"] for p in tiny_trace.packets})
    sim, splitter = deploy(suspicious, 2, PS)
    stream = sim.run_streaming(
        tcp_source(tiny_trace.packets, source),
        splitter,
        10.0,
        faults=FaultPlan.of(Fault("skip", 1, 1, 2)),
    )
    # liveness: every epoch ran, outputs kept flowing after the outage
    assert stream.timeline.num_epochs == len(epochs)
    assert stream.rows_dropped(1) > 0
    assert stream.rows_dropped(0) == 0
    for stats in stream.flow_stats.values():
        assert stats.conserves()
    assert stream.outputs.row_count() > 0


@pytest.mark.parametrize("source", SOURCES)
def test_duplicate_fault_reconciles(source, tiny_trace, suspicious):
    """Doubled deliveries inflate rows_in and still reconcile exactly."""
    sim, splitter = deploy(suspicious, 2, PS)
    sources = tcp_source(tiny_trace.packets, source)
    clean = sim.run_streaming(sources, splitter, 10.0)
    dup = sim.run_streaming(
        sources, splitter, 10.0, faults=FaultPlan.of(Fault("duplicate", 0, 0, 99))
    )
    for host, stats in dup.flow_stats.items():
        assert stats.conserves(), host
        assert stats.total_in == stats.total_delivered + stats.total_dropped
    # host 0 ingested every one of its rows twice; host 1 was untouched
    total = len(tiny_trace.packets)
    host1_rows = dup.flow_stats[1].total_in
    assert dup.flow_stats[0].total_in == 2 * (total - host1_rows)
    assert dup.outputs.row_count() >= clean.outputs.row_count()


@pytest.mark.parametrize("source", SOURCES)
def test_delay_fault_is_lossless(source, tiny_trace, suspicious):
    """Late delivery reorders rows; output multisets must not change."""
    sim, splitter = deploy(suspicious, 2, PS)
    sources = tcp_source(tiny_trace.packets, source)
    oneshot = sim.run(sources, splitter, 10.0)
    late = sim.run_streaming(
        sources, splitter, 10.0, faults=FaultPlan.of(Fault("delay", 0, 1, 2, delay=2))
    )
    assert_same_outputs(oneshot, late)
    for stats in late.flow_stats.values():
        assert stats.conserves()
        assert stats.total_dropped == 0


def test_drop_and_fault_events_in_trace(tiny_trace, suspicious):
    sim, splitter = deploy(suspicious, 2, PS, record_events=True)
    sim.run_streaming(
        {"TCP": tiny_trace.packets},
        splitter,
        10.0,
        queue_policy=QueuePolicy(40, DROP_NEWEST),
        faults=FaultPlan.of(Fault("duplicate", 1, 1, 2)),
    )
    handle = io.StringIO()
    sim.metrics.dump_events(handle)
    events = [json.loads(line) for line in handle.getvalue().splitlines()]
    drops = [e for e in events if e["event"] == "drop"]
    faults = [e for e in events if e["event"] == "fault"]
    assert drops and all({"epoch", "host", "rows"} <= set(e) for e in drops)
    assert faults and all(e["kind"] == "duplicate" for e in faults)
    assert sim.metrics.fault_counts[(1, "duplicate")] == sum(
        e["rows"] for e in faults
    )


# -- the splitter cursor contract -----------------------------------------------


def _cursor_dag(catalog_factory) -> QueryDag:
    catalog = catalog_factory()
    catalog.define_query(
        "flows",
        "SELECT tb, COUNT(*) as cnt FROM TCP GROUP BY time as tb",
    )
    return QueryDag.from_catalog(catalog)


def _cursor_packet(time, port):
    return {
        "time": time,
        "timestamp": time * 1000,
        "srcIP": 1,
        "destIP": 2,
        "srcPort": port,
        "destPort": 80,
        "protocol": 6,
        "flags": 0,
        "len": 100,
    }


@pytest.mark.parametrize("source", SOURCES)
def test_round_robin_cursor_advances_on_accept(source, catalog_factory):
    """A partially refused epoch must roll the cursor back to the accept
    point: the next epoch's round-robin assignment continues from the
    rows that actually entered the system, not from the rows sent."""
    dag = _cursor_dag(catalog_factory)
    placement = Placement(2, 1)
    plan = DistributedOptimizer(dag, placement, None).optimize()
    sim = ClusterSimulator(dag, plan, stream_rate=100)
    splitter = RoundRobinSplitter(placement.num_partitions)
    # epoch 0: 5 rows -> round robin gives host0 3, host1 2; capacity 2
    # refuses host0's third row, so only 4 rows were accepted.
    packets = [_cursor_packet(0, p) for p in range(5)]
    packets += [_cursor_packet(1, p) for p in range(3)]
    stream = sim.run_streaming(
        tcp_source(packets, source),
        splitter,
        2.0,
        queue_policy=QueuePolicy(2, DROP_NEWEST),
    )
    host0, host1 = stream.flow_stats[0], stream.flow_stats[1]
    assert host0.rows_in == [3, 2] and host0.rows_dropped == [1, 0]
    # epoch 1 continues from offset 4 (the accept point): rows land on
    # hosts 0,1,0.  The old advance-on-send cursor (offset 5) would have
    # produced [1, 2] / [2, 1] instead.
    assert host1.rows_in == [2, 1]
    assert host0.rows_delivered == [2, 2]
    assert all(stats.conserves() for stats in stream.flow_stats.values())


# -- the overload experiment ----------------------------------------------------


def test_overload_sweep_degrades_gracefully(tiny_trace, suspicious):
    """The acceptance curve: shrinking ingest budgets shed more rows while
    every point stays conserved and the run keeps producing output."""
    configuration = experiment1_configurations()[2]  # Partitioned
    points = overload_sweep(
        suspicious,
        tiny_trace,
        configuration,
        num_hosts=2,
        fractions=(1.0, 0.5, 0.1),
    )
    assert [p.fraction for p in points] == [1.0, 0.5, 0.1]
    assert points[-1].rows_dropped > 0
    fractions = [p.delivered_fraction for p in points]
    assert fractions == sorted(fractions, reverse=True)
    for point in points:
        assert point.rows_in == point.rows_delivered + point.rows_dropped
    rendered = format_overload("overload", points)
    assert "dropped" in rendered.splitlines()[1]
    assert len(rendered.splitlines()) == len(points) + 2
