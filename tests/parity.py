"""Shared streaming-vs-one-shot parity harness.

The repo's core execution contract: ``ClusterSimulator.run_streaming``
must produce the *same simulation* as ``run`` — identical output
multisets, per-node tuple counts, per-host per-category CPU charges, and
per-link network counters.  This module holds the reusable pieces:

* :func:`assert_same_simulation` — the observational-equivalence check
  (used by the hand-picked cases in ``test_streaming.py`` and the
  randomized sweep in ``test_parity_random.py``);
* :func:`assert_identical_simulation` — the exact (``==``) form, for
  runs whose accounting is replayed rather than re-derived: forked vs
  in-process execution, a pruned vs an unpruned source, a row-list vs a
  ``ColumnBatch`` source;
* :func:`random_packets` — a seeded adversarial trace generator that
  produces shapes the realistic generator never emits: empty epochs,
  bursts, tiny key domains, ports colliding across hosts;
* :func:`assert_streaming_matches_oneshot` — one randomized parity trial:
  derive trace, cluster size, and partitioning from a seed, run both
  modes, and compare.  Lossless flow control (a bounded ``block`` queue)
  may be layered on — backpressure must never change the answer.
* :func:`assert_matches_centralized` — the paper's §3.4 oracle: every
  delivered query's distributed output equals ``run_centralized``'s.
  Called by the streaming sweep and, for exact queries, the sliding one;
  approximate queries meet :func:`assert_within_sketch_bounds` instead.
* :func:`tcp_source` — the one axis the trials still rotate that is not
  derived from the seed: whether the trace enters the run as dict rows
  (converted once, at the door) or as a ``ColumnBatch``.
* :func:`skewed_packets` / :func:`assert_rebalanced_matches_oneshot` —
  the adaptive-rebalancing leg: a hot-key trace drives mid-stream
  migrations, and the streaming outputs must stay byte-identical to the
  static one-shot run (migration relabels *where* operators execute and
  are charged, never *what* they compute).  Per-host CPU and per-link
  network intentionally differ, so only outputs and per-node counts are
  compared there.
"""

import collections
import math
import random

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    FaultPlan,
    HashSplitter,
    QueuePolicy,
    RebalancePolicy,
    RoundRobinSplitter,
)
from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import DistributedPlan
from repro.engine import ColumnBatch, batches_equal, columnar, run_centralized
from repro.engine.aggregates import AggregateFunction, register_aggregate
from repro.gsql.catalog import Catalog
from repro.gsql.schema import tcp_schema
from repro.partitioning import PartitioningSet
from repro.plan import QueryDag
from repro.runtime.flowcontrol import Fault
from repro.workloads import (
    approx_heavy_catalog,
    complex_catalog,
    per_query_recall,
    sliding_flows_catalog,
    subnet_jitter_catalog,
    suspicious_flows_catalog,
)

WORKLOADS = {
    "suspicious": (suspicious_flows_catalog, None),
    "jitter": (subnet_jitter_catalog, ("subnet_stats", "tcp_flows", "jitter")),
    "complex": (complex_catalog, ("flows", "heavy_flows", "flow_pairs")),
}

#: Pool cap for every forked-worker run in the sweeps.
WORKERS = 2

#: How a trace enters a run.  There is one runtime; the names are the
#: test ids the two retired engines left behind.
SOURCES = ("row", "columnar")


def tcp_source(packets, form):
    """``packets`` as the run's ``TCP`` stream, in one of :data:`SOURCES`."""
    assert form in SOURCES, form
    return {"TCP": packets if form == "row" else ColumnBatch.from_rows(packets)}


class LastValue(AggregateFunction):
    """A UDAF (no array form: the kernels fold it per group) whose answer
    depends on the order a group's rows are folded in — it checks that
    the fold walks each group in arrival order."""

    name = "LAST_VALUE"
    splittable = True

    def initial(self):
        return None

    def update(self, state, value):
        return value

    def merge(self, state, other):
        return other if other is not None else state

    def final(self, state):
        return state


class OddAsFloat(LastValue):
    """LAST_VALUE that answers odd values as floats.  Over ``time`` and
    grouped by epoch, its column is int64 in even epochs and float64 in
    odd ones: one concatenated batch would print ``2.0`` for ``2``."""

    name = "ODD_AS_FLOAT"

    def final(self, state):
        return float(state) if state % 2 else state


register_aggregate(LastValue())
register_aggregate(OddAsFloat())


def last_value_dag():
    """A DAG over the order-sensitive :class:`LastValue` UDAF."""
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.define_query(
        "latest",
        "SELECT tb, srcIP, LAST_VALUE(len) as last_len FROM TCP "
        "GROUP BY time as tb, srcIP",
    )
    return QueryDag.from_catalog(catalog)


def reverse_the_fold(monkeypatch):
    """Known-bad: the UDAF fold walks each group's slice last row first,
    so :class:`LastValue` answers with each group's first value."""
    update = columnar._UdafFold.update

    def reversed_update(self, values, starts, counts):
        backwards = np.concatenate(
            [np.arange(start + count - 1, start - 1, -1)
             for start, count in zip(starts.tolist(), counts.tolist())]
        )
        return update(self, values[backwards], starts, counts)

    monkeypatch.setattr(columnar._UdafFold, "update", reversed_update)


_QSET_MASKS = (0xFFFFFFF0, 0xFFFFFF00, 0xFFFF0000, 0xFFFFFFFF)
_QSET_PORTS = (80, 443, 22, 25, 53, 8080)


def qset_dag(families, seed=0):
    """A generated query set in the shape of the paper's Figs 10-11
    experiment: per family a filtered subnet flow aggregate, a MAX over
    it, and that MAX's consecutive-epoch self-join, rotating the mask,
    the epoch length (1-3 s) and the predicate.  Families with the same
    epoch length are sibling aggregates of one input."""
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    for family in range(families):
        mask = _QSET_MASKS[family % len(_QSET_MASKS)]
        if (family // len(_QSET_MASKS)) % 2 == 0:
            where = f"destPort = {rng.choice(_QSET_PORTS)}"
        else:
            where = f"len > {rng.randrange(200, 500)}"
        catalog.define_query(
            f"flows_{family}",
            f"SELECT tb, srcNet, destIP, COUNT(*) as cnt, SUM(len) as bytes "
            f"FROM TCP WHERE {where} "
            f"GROUP BY time/{1 + family % 3} as tb, srcIP & {mask:#x} as srcNet, "
            f"destIP",
        )
        catalog.define_query(
            f"peak_{family}",
            f"SELECT tb, srcNet, MAX(cnt) as max_cnt FROM flows_{family} "
            f"GROUP BY tb, srcNet",
        )
        catalog.define_query(
            f"pairs_{family}",
            f"SELECT S1.tb, S1.srcNet, S1.max_cnt as cnt1, S2.max_cnt as cnt2 "
            f"FROM peak_{family} S1, peak_{family} S2 "
            f"WHERE S1.srcNet = S2.srcNet and S1.tb = S2.tb + 1",
        )
    return QueryDag.from_catalog(catalog)


PS_CHOICES = [
    None,
    PartitioningSet.of("srcIP"),
    PartitioningSet.of("srcIP & 0xFFF0", "destIP"),
    PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort"),
]


def splitter_for(num_partitions, ps):
    """Hash on ``ps``, or round-robin when there is none."""
    if ps is None:
        return RoundRobinSplitter(num_partitions)
    return HashSplitter(num_partitions, ps)


def deploy(dag, hosts, ps, deliver=None, merge_local=True, **simulator):
    """``(simulator, splitter)`` for ``dag`` optimized onto ``hosts`` x 2
    partitions under ``ps``; ``simulator`` goes to ``ClusterSimulator``."""
    placement = Placement(hosts, 2, merge_local_partitions=merge_local)
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    sim = ClusterSimulator(dag, plan, stream_rate=1000, **simulator)
    return sim, splitter_for(placement.num_partitions, ps)


OUTER_JOIN = (
    "SELECT S1.tb as tb, S1.srcIP as ip, S1.cnt + S2.cnt as total "
    "FROM flows S1 FULL OUTER JOIN flows S2 "
    "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1"
)


def outer_join_plan(catalog):
    """A hand-built partitioned outer-join plan exercising NULLPAD, over
    a fresh ``catalog`` holding only the TCP stream.

    Three partitions on three hosts: partition 0 computes the pair-wise
    join locally, partition 1 has only the left side (NULLPAD left) and
    partition 2 only the right side (NULLPAD right); a merge at the
    aggregator unions the three result streams.  The ``S1.cnt + S2.cnt``
    output exercises NULL arithmetic on every padded row.
    """
    catalog.define_query(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time as tb, srcIP",
    )
    catalog.define_query("pairs", OUTER_JOIN)
    dag = QueryDag.from_catalog(catalog)
    plan = DistributedPlan(num_hosts=3, partitions_per_host=1)
    sources = [plan.add_source("TCP", p) for p in range(3)]
    flows = [
        plan.add_op("flows", [src.node_id], host=p)
        for p, src in enumerate(sources)
    ]
    join = plan.add_op(
        "pairs", [flows[0].node_id, flows[0].node_id], host=0
    )
    pad_left = plan.add_nullpad(flows[1].node_id, "left", host=1, query="pairs")
    pad_right = plan.add_nullpad(flows[2].node_id, "right", host=2, query="pairs")
    merge = plan.add_merge(
        [join.node_id, pad_left.node_id, pad_right.node_id], host=0
    )
    plan.producers["pairs"] = [merge.node_id]
    plan.delivery["pairs"] = merge.node_id
    return dag, plan


def random_packets(seed, max_epochs=7, max_burst=70):
    """A seeded adversarial TCP trace: time-sorted, otherwise hostile.

    Epoch sizes vary wildly (including empty epochs — gaps in ``time``),
    key domains are small enough that groups collide across hosts, and a
    few rows reuse the exact same 4-tuple so hash partitions get hot
    spots.  Rows are sorted by ``time`` only — the round-robin cursor
    contract requires nothing more.
    """
    rng = random.Random(seed)
    num_epochs = rng.randint(3, max_epochs)
    num_src = rng.choice((3, 8, 24))
    num_dst = rng.choice((2, 6))
    packets = []
    for epoch in range(num_epochs):
        if rng.random() < 0.15:
            continue  # an empty epoch: watermarks must still advance
        burst = rng.randint(1, max_burst)
        for _ in range(burst):
            packets.append(
                {
                    "time": epoch,
                    "timestamp": epoch * 1000 + rng.randint(0, 999),
                    "srcIP": 0x0A000000 + rng.randrange(num_src),
                    "destIP": 0xC0A80000 + rng.randrange(num_dst),
                    "srcPort": rng.choice((1024, 2048, 4096, 8192)),
                    "destPort": rng.choice((80, 443)),
                    "protocol": 6,
                    "flags": rng.choice((0, 2, 16)),
                    "len": rng.randint(40, 1500),
                }
            )
    packets.sort(key=lambda p: p["time"])
    return packets


def skewed_packets(seed, max_epochs=9, rate=60):
    """A seeded hot-key TCP trace: one ``srcIP`` dominates the stream.

    Unlike :func:`random_packets`, the key distribution is deliberately
    lopsided — roughly 60 % of each epoch's rows carry a single hot
    source address (which one is seed-dependent), the rest spread over a
    small pool — so a hash partitioning concentrates load on whichever
    host owns the hot partition.  That is exactly the shape the
    rebalancer exists to fix, and it guarantees the trigger actually
    fires during the parity sweep instead of testing a no-op.
    """
    rng = random.Random(seed ^ 0xBA1A)
    num_epochs = rng.randint(5, max_epochs)
    pool = [0x0A000000 + i for i in range(12)]
    hot = rng.choice(pool)
    packets = []
    for epoch in range(num_epochs):
        for _ in range(rng.randint(rate // 2, rate)):
            src = hot if rng.random() < 0.6 else rng.choice(pool)
            packets.append(
                {
                    "time": epoch,
                    "timestamp": epoch * 1000 + rng.randint(0, 999),
                    "srcIP": src,
                    "destIP": 0xC0A80000 + rng.randrange(4),
                    "srcPort": rng.choice((1024, 2048, 4096, 8192)),
                    "destPort": rng.choice((80, 443)),
                    "protocol": 6,
                    # include FIN/PSH/URG bits so some flows OR-fold to
                    # the §6.1 attack pattern (0x29) and the suspicious
                    # workload's output is non-trivially compared
                    "flags": rng.choice((0, 1, 2, 8, 16, 32, 41)),
                    "len": rng.randint(40, 1500),
                }
            )
    packets.sort(key=lambda p: p["time"])
    return packets


def assert_same_outputs(reference, got):
    """The same delivered multisets, query by query, and the same
    per-node tuple counts — what every lossless mechanism must keep."""
    assert set(reference.outputs) == set(got.outputs)
    for name in reference.outputs:
        assert batches_equal(reference.outputs[name], got.outputs[name]), name
    assert reference.node_output_counts == got.node_output_counts


def assert_same_simulation(oneshot, stream):
    """Streaming must be observationally identical to the one-shot run."""
    assert_same_outputs(oneshot, stream)
    for ref, got in zip(oneshot.hosts, stream.hosts):
        assert got.cpu_units == pytest.approx(ref.cpu_units, abs=1e-9)
        assert set(ref.by_category) == set(got.by_category)
        for category, units in ref.by_category.items():
            assert got.by_category[category] == pytest.approx(
                units, abs=1e-9
            ), category
    assert oneshot.network.tuples_received == stream.network.tuples_received
    assert oneshot.network.link_tuples == stream.network.link_tuples
    for host, total in oneshot.network.bytes_received.items():
        # float summation order differs between one big and many small adds
        assert stream.network.bytes_received[host] == pytest.approx(total)


def assert_matches_centralized(dag, packets, result):
    """Partition compatibility as the paper defines it (§3.4): each
    delivered query's distributed output equals the centralized run's."""
    central = run_centralized(dag, {"TCP": packets})
    for name, rows in result.outputs.items():
        assert batches_equal(central[name], rows), (
            f"{name}: distributed output differs from the centralized run"
        )


def assert_within_sketch_bounds(dag, packets, answer, query="approx_heavy"):
    """The §3.4 clause of an approximate query (Papapetrou et al.):
    against the exact centralized answer an estimate never undercounts,
    overshoots ε·‖window‖ on at most the δ budget of all estimates, and
    every ε-heavy key of every window is reported."""
    accuracy = dag.node(query).accuracy
    truth, totals = {}, collections.Counter()
    for row in run_centralized(dag, {"TCP": packets})[query]:
        truth[row["tb"], row["srcIP"], row["destIP"]] = row["cnt"], row["bytes"]
        totals[row["tb"], "cnt"] += row["cnt"]
        totals[row["tb"], "bytes"] += row["bytes"]
    reported = set()
    violations = estimates = 0
    for row in answer:
        key = (row["tb"], row["srcIP"], row["destIP"])
        reported.add(key)
        for column, exact in zip(("cnt", "bytes"), truth.get(key, (0, 0))):
            assert row[column] >= exact, f"{key} underestimates {column}"
            estimates += 1
            violations += (
                row[column] - exact > accuracy.epsilon * totals[key[0], column]
            )
    assert violations <= max(1, accuracy.delta * estimates), (
        f"{violations} of {estimates} estimates overshoot eps*|window|"
    )
    for key, (count, _) in truth.items():
        if count >= accuracy.epsilon * totals[key[0], "cnt"]:
            assert key in reported, f"missing heavy key {key}"


def assert_identical_simulation(reference, parallel):
    """Exact equality — not approx: accounting is replayed, not re-derived."""
    assert_same_outputs(reference, parallel)
    for ref, got in zip(reference.hosts, parallel.hosts):
        assert ref.cpu_units == got.cpu_units
        assert ref.by_category == got.by_category
        assert ref.epoch_cpu == got.epoch_cpu
    assert reference.network.link_tuples == parallel.network.link_tuples
    assert reference.network.bytes_received == parallel.network.bytes_received
    assert reference.peak_batch_rows == parallel.peak_batch_rows
    assert reference.timeline == parallel.timeline  # None for one-shot runs
    assert reference.flow_stats == parallel.flow_stats


def random_case(workload, seed):
    """What a seed stands for in the streaming sweep and the forked one:
    ``(dag, deliver, packets, hosts, partitioning)``."""
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    rng = random.Random(seed ^ 0x5EED)
    packets = random_packets(seed)
    return dag, deliver, packets, rng.choice((1, 2, 3)), rng.choice(PS_CHOICES)


def assert_streaming_matches_oneshot(
    workload, seed, source, queue_capacity=None, execution="inprocess"
):
    """One randomized parity trial.

    Everything varies with ``seed`` — the trace shape, the cluster size,
    and the partitioning — so 50 seeds cover a broad slice of the space.
    With ``queue_capacity`` the streaming run additionally goes through a
    bounded ``block`` ingest queue: backpressure defers delivery across
    epochs but loses nothing, so the equivalence must still be exact.
    With ``execution="parallel"`` the streaming run executes each host's
    pipeline in a forked worker process — outputs and accounting must
    still match the (in-process) one-shot run exactly.  The one-shot run
    in turn must match the centralized oracle.
    """
    dag, deliver, packets, hosts, ps = random_case(workload, seed)
    sim, splitter = deploy(dag, hosts, ps, deliver)
    policy = None
    if queue_capacity is not None:
        policy = QueuePolicy(queue_capacity, "block")
    oneshot = sim.run(tcp_source(packets, source), splitter, 10.0)
    stream = sim.run_streaming(
        tcp_source(packets, source), splitter, 10.0, queue_policy=policy,
        execution=execution, workers=WORKERS,
    )
    assert_same_simulation(oneshot, stream)
    assert_matches_centralized(dag, packets, oneshot)
    if policy is not None:
        for stats in stream.flow_stats.values():
            assert stats.conserves()
            assert stats.total_dropped == 0
    return oneshot, stream


#: (window_panes, slide_panes) shapes the sliding sweep rotates through:
#: overlapping slide-1 windows, a strided window, a tumbling multi-pane
#: window (RANGE == SLIDE > 1 relabels by window end), and a wide window.
SLIDING_SHAPES = [(2, 1), (3, 1), (4, 2), (3, 3), (6, 2)]


def assert_sliding_matches_oneshot(
    seed, source, execution="inprocess", oracle=None, answer=None
):
    """One randomized sliding/approximate parity trial.

    Rotates window shapes and partitionings with ``seed``; even seeds run
    the exact sliding workload, odd seeds the sketch-backed approximate
    one.  Asserts the full observational equivalence between streaming
    and one-shot (outputs, CPU by category, network by link).  Exact
    (even) seeds must also equal the centralized run of ``oracle`` — the
    trial's own DAG unless a test substitutes a wrong one; approximate
    (odd) seeds must stay within :func:`assert_within_sketch_bounds` of
    it.  ``answer`` substitutes the checked output (rows in, rows out),
    again so a test can prove the assertion bites.
    """
    rng = random.Random(seed ^ 0x511D)
    window, slide = SLIDING_SHAPES[seed % len(SLIDING_SHAPES)]
    if seed % 2 == 0:
        _, dag = sliding_flows_catalog(window, slide)
        output, expected_variants = "sliding_flows", {"sub", "super"}
        ps_pool = PS_CHOICES
    else:
        _, dag = approx_heavy_catalog(
            epsilon=rng.choice((0.02, 0.05, 0.1)),
            confidence=0.95,
            window_panes=window,
            slide_panes=slide,
        )
        output, expected_variants = "approx_heavy", {
            "sketch_sub", "sketch_super",
        }
        # Keep the splitter incompatible with the group-by so the
        # optimizer actually takes the sketch split (a compatible PS
        # correctly prefers the exact FULL push — tested elsewhere).
        ps_pool = [None, PartitioningSet.of("srcPort")]
    packets = random_packets(seed)
    hosts = rng.choice((1, 2, 3))
    ps = rng.choice(ps_pool)
    sim, splitter = deploy(dag, hosts, ps)
    oneshot = sim.run(tcp_source(packets, source), splitter, 10.0)
    stream = sim.run_streaming(
        tcp_source(packets, source), splitter, 10.0,
        execution=execution, workers=WORKERS,
    )
    assert_same_simulation(oneshot, stream)
    chosen = set(oneshot.node_variants.values())
    if ps is None and hosts > 1:
        # Round-robin splitting is incompatible with every group-by, so
        # the split (exact or sketch) must actually have been taken.
        assert chosen == expected_variants, chosen
    else:
        assert chosen <= expected_variants | {"full"}, chosen
    if seed % 2 == 0:
        assert_matches_centralized(oracle or dag, packets, oneshot)
    else:
        rows = oneshot.outputs[output]
        assert_within_sketch_bounds(
            dag, packets, rows if answer is None else answer(rows)
        )
    return oneshot, stream


def assert_rebalanced_matches_oneshot(
    workload, seed, source, execution="inprocess"
):
    """One randomized rebalancing parity trial.

    A hot-key trace on a multi-host cluster with an aggressive policy
    (one-epoch window and cooldown, low threshold) so migrations fire on
    nearly every seed.  Every third seed additionally injects a ``delay``
    fault racing the migrations: rows withheld from a host whose
    partitions move mid-run must still land on whichever host owns them
    at delivery time.  Outputs and per-node counts must stay
    byte-identical to the static one-shot run; per-host CPU and network
    are *expected* to differ — relocating charges is the rebalancer's
    entire job — so :func:`assert_same_simulation` is deliberately not
    used here.  Returns the streaming result so callers can inspect the
    rebalance log (e.g. count migrations across the sweep).
    """
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    rng = random.Random(seed ^ 0x2EBA)
    packets = skewed_packets(seed)
    hosts = rng.choice((2, 3))
    # merge_local=False keeps one subplan per partition, the granularity
    # the directory migrates at.
    sim, splitter = deploy(
        dag, hosts, PartitioningSet.of("srcIP"), deliver, merge_local=False
    )
    policy = RebalancePolicy(threshold=1.1, window=1, cooldown=1)
    faults = None
    if seed % 3 == 0:
        faults = FaultPlan.of(
            Fault("delay", rng.randrange(hosts), 1, 2, delay=2)
        )
    oneshot = sim.run(tcp_source(packets, source), splitter, 10.0)
    stream = sim.run_streaming(
        tcp_source(packets, source), splitter, 10.0, rebalance=policy,
        faults=faults, execution=execution, workers=WORKERS,
    )
    assert_same_outputs(oneshot, stream)
    assert stream.rebalance is not None
    if faults is not None:
        for stats in stream.flow_stats.values():
            assert stats.conserves()
            assert stats.total_dropped == 0
    return oneshot, stream


#: capacity fractions the shedding sweep rotates through — both well
#: below the offered rate so every epoch actually overflows.
SHEDDING_FRACTIONS = (0.25, 0.1)


# The shedding modes :func:`shed_trial` compares: per-host capacity ->
# ``run_streaming`` keywords.


def semantic_shedding(capacity):
    return {"queue_policy": QueuePolicy(capacity, "semantic")}


def blind_shedding(capacity):
    return {"queue_policy": QueuePolicy(capacity, "drop-newest")}


def forked_semantic_shedding(capacity):
    return {
        "execution": "parallel", "workers": WORKERS,
        **semantic_shedding(capacity),
    }


def shed_trial(workload, seed, source, hosts, fraction, modes):
    """One hot-key trace, unbounded and then once per entry of ``modes``.

    Each mode maps the per-host capacity (``fraction`` of the offered
    per-host rate, identical for all of them) to ``run_streaming``
    keywords.  Asserts per-host conservation (in == delivered + dropped +
    queued, per epoch) and that every bounded run really dropped rows —
    capacity is far below the offered rate, and a no-op trial proves
    nothing.  Returns ``[(result, mean per-query recall against the
    unbounded run)]`` in ``modes`` order.
    """
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    packets = skewed_packets(seed)
    sim, splitter = deploy(dag, hosts, PartitioningSet.of("srcIP"), deliver)
    epochs = len({p["time"] for p in packets})
    # Floor of 4: at 1-2 rows/epoch there is nothing left to *rank* and
    # which row survives is pure tie-breaking luck for either policy.
    capacity = max(4, int(len(packets) / epochs / hosts * fraction))
    reference = sim.run_streaming(tcp_source(packets, source), splitter, 10.0)
    trials = []
    for mode in modes:
        bounded = sim.run_streaming(
            tcp_source(packets, source), splitter, 10.0, **mode(capacity)
        )
        for stats in bounded.flow_stats.values():
            assert stats.conserves()
        assert sum(s.total_dropped for s in bounded.flow_stats.values()) > 0
        recall = per_query_recall(reference.outputs, bounded.outputs)
        scores = [v for v in recall.values() if not math.isnan(v)]
        assert scores, "reference run produced no output to recall"
        trials.append((bounded, sum(scores) / len(scores)))
    return trials


def assert_shedding_dominates(workload, seed, source, execution="inprocess"):
    """One randomized shedding-quality trial.

    A hot-key trace (the same shape the rebalance sweep uses — skew is
    what makes group-level doom accounting pay off) runs three times at
    identical per-host capacity (see :func:`shed_trial`): unbounded (the
    recall reference), semantic shedding, and a blind ``drop-newest``
    queue.  The oracle asserts that the semantic run's mean per-query
    recall is at least the blind run's, and — when
    ``execution="parallel"`` — that the forked-worker semantic run is
    byte-identical to the in-process one: outputs, per-node counts,
    per-query shed attribution, and the per-epoch flow series (the open
    join buckets are asked of the workers, so the shed decisions
    themselves must match row for row).

    Returns ``(semantic_mean, blind_mean)`` so sweep callers can
    additionally assert *strict* dominance in aggregate — per seed only
    weak dominance holds (a lucky blind drop can tie).
    """
    rng = random.Random(seed ^ 0x5EDD)
    hosts = rng.choice((2, 3))
    fraction = SHEDDING_FRACTIONS[seed % len(SHEDDING_FRACTIONS)]
    modes = [semantic_shedding, blind_shedding]
    if execution == "parallel":
        modes.append(forked_semantic_shedding)
    (semantic, semantic_mean), (_, blind_mean), *forked = shed_trial(
        workload, seed, source, hosts, fraction, modes
    )
    assert sum(semantic.shed_counts.values()) > 0
    assert semantic_mean >= blind_mean - 1e-9, (
        f"semantic recall {semantic_mean:.4f} < blind {blind_mean:.4f} "
        f"(workload={workload} seed={seed} fraction={fraction})"
    )
    for run, _ in forked:
        assert run.execution == "parallel"
        assert_same_outputs(semantic, run)
        assert run.shed_counts == semantic.shed_counts
        assert run.flow_stats == semantic.flow_stats
    return semantic_mean, blind_mean
