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
  in-process execution, a pruned vs an unpruned source;
* :func:`random_packets` — a seeded adversarial trace generator that
  produces shapes the realistic generator never emits: empty epochs,
  bursts, tiny key domains, ports colliding across hosts;
* :func:`assert_streaming_matches_oneshot` — one randomized parity trial:
  derive trace, cluster size, and partitioning from a seed, run both
  modes, and compare.  Lossless flow control (a bounded ``block`` queue)
  may be layered on — backpressure must never change the answer.
* :func:`assert_matches_centralized` — the paper's §3.4 oracle: every
  delivered query's distributed output equals ``run_centralized``'s.
  Called by the streaming sweep and, for exact queries, the sliding one.
* :func:`skewed_packets` / :func:`assert_rebalanced_matches_oneshot` —
  the adaptive-rebalancing leg: a hot-key trace drives mid-stream
  migrations, and the streaming outputs must stay byte-identical to the
  static one-shot run (migration relabels *where* operators execute and
  are charged, never *what* they compute).  Per-host CPU and per-link
  network intentionally differ, so only outputs and per-node counts are
  compared there.
"""

import math
import random

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
from repro.engine import batches_equal, run_centralized
from repro.partitioning import PartitioningSet
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

PS_CHOICES = [
    None,
    PartitioningSet.of("srcIP"),
    PartitioningSet.of("srcIP & 0xFFF0", "destIP"),
    PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort"),
]


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


def assert_same_simulation(oneshot, stream):
    """Streaming must be observationally identical to the one-shot run."""
    assert set(oneshot.outputs) == set(stream.outputs)
    for name in oneshot.outputs:
        assert batches_equal(oneshot.outputs[name], stream.outputs[name]), name
    assert oneshot.node_output_counts == stream.node_output_counts
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


def assert_identical_simulation(reference, parallel):
    """Exact equality — not approx: accounting is replayed, not re-derived."""
    assert set(reference.outputs) == set(parallel.outputs)
    for name in reference.outputs:
        assert batches_equal(reference.outputs[name], parallel.outputs[name]), name
    assert reference.node_output_counts == parallel.node_output_counts
    for ref, got in zip(reference.hosts, parallel.hosts):
        assert ref.cpu_units == got.cpu_units
        assert ref.by_category == got.by_category
        assert ref.epoch_cpu == got.epoch_cpu
    assert reference.network.link_tuples == parallel.network.link_tuples
    assert reference.network.bytes_received == parallel.network.bytes_received
    assert reference.peak_batch_rows == parallel.peak_batch_rows
    assert reference.fallback_nodes == parallel.fallback_nodes
    assert reference.timeline.epochs == parallel.timeline.epochs
    assert reference.timeline.host_cpu == parallel.timeline.host_cpu
    assert reference.timeline.link_tuples == parallel.timeline.link_tuples
    assert reference.timeline.link_bytes == parallel.timeline.link_bytes
    assert set(reference.flow_stats) == set(parallel.flow_stats)
    for host, ref_stats in reference.flow_stats.items():
        got_stats = parallel.flow_stats[host]
        assert ref_stats.rows_in == got_stats.rows_in
        assert ref_stats.rows_delivered == got_stats.rows_delivered
        assert ref_stats.rows_dropped == got_stats.rows_dropped
        assert ref_stats.rows_queued == got_stats.rows_queued


def assert_streaming_matches_oneshot(
    workload, seed, engine, queue_capacity=None, execution="inprocess"
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
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    rng = random.Random(seed ^ 0x5EED)
    packets = random_packets(seed)
    hosts = rng.choice((1, 2, 3))
    ps = rng.choice(PS_CHOICES)
    placement = Placement(hosts, 2)
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    if ps is None:
        splitter = RoundRobinSplitter(placement.num_partitions)
    else:
        splitter = HashSplitter(placement.num_partitions, ps)
    policy = None
    if queue_capacity is not None:
        policy = QueuePolicy(queue_capacity, "block")
    sim = ClusterSimulator(dag, plan, stream_rate=1000, engine=engine)
    oneshot = sim.run({"TCP": packets}, splitter, 10.0)
    stream = sim.run_streaming(
        {"TCP": packets}, splitter, 10.0, queue_policy=policy,
        execution=execution, workers=WORKERS,
    )
    assert_same_simulation(oneshot, stream)
    assert_matches_centralized(dag, packets, oneshot)
    if engine == "columnar":
        # Every node kind has a vectorized kernel now: the columnar
        # backend must never silently downgrade a node to the row path.
        assert oneshot.fallback_nodes == {}
        assert stream.fallback_nodes == {}
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
    seed, engine, execution="inprocess", oracle=None
):
    """One randomized sliding/approximate parity trial.

    Rotates window shapes and partitionings with ``seed``; even seeds run
    the exact sliding workload, odd seeds the sketch-backed approximate
    one.  Asserts the full observational equivalence between streaming
    and one-shot (outputs, CPU by category, network by link), that no
    node fell back off the columnar engine, and — both paths being
    deterministic by construction — that the run's outputs are
    byte-identical to the row engine's one-shot run of the same plan.
    Exact (even) seeds must also equal the centralized run of ``oracle``
    — the trial's own DAG unless a test substitutes a wrong one to prove
    the assertion bites; approximate seeds are bounded against the exact
    oracle in ``test_sketch_accuracy_against_oracle`` instead.
    """
    rng = random.Random(seed ^ 0x511D)
    window, slide = SLIDING_SHAPES[seed % len(SLIDING_SHAPES)]
    if seed % 2 == 0:
        catalog_fn = lambda: sliding_flows_catalog(window, slide)
        output, expected_variants = "sliding_flows", {"sub", "super"}
        ps_pool = PS_CHOICES
    else:
        catalog_fn = lambda: approx_heavy_catalog(
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
    _, dag = catalog_fn()
    packets = random_packets(seed)
    hosts = rng.choice((1, 2, 3))
    ps = rng.choice(ps_pool)
    placement = Placement(hosts, 2)
    plan = DistributedOptimizer(dag, placement, ps).optimize()
    if ps is None:
        splitter = RoundRobinSplitter(placement.num_partitions)
    else:
        splitter = HashSplitter(placement.num_partitions, ps)
    sim = ClusterSimulator(dag, plan, stream_rate=1000, engine=engine)
    oneshot = sim.run({"TCP": packets}, splitter, 10.0)
    stream = sim.run_streaming(
        {"TCP": packets}, splitter, 10.0, execution=execution, workers=WORKERS
    )
    assert_same_simulation(oneshot, stream)
    assert oneshot.fallback_nodes == {}
    assert stream.fallback_nodes == {}
    chosen = set(oneshot.node_variants.values())
    if ps is None and hosts > 1:
        # Round-robin splitting is incompatible with every group-by, so
        # the split (exact or sketch) must actually have been taken.
        assert chosen == expected_variants, chosen
    else:
        assert chosen <= expected_variants | {"full"}, chosen
    # Cross-engine determinism: the same plan on the row engine must
    # produce byte-identical outputs (sketches are deterministic too).
    reference = ClusterSimulator(
        dag, plan, stream_rate=1000, engine="row"
    ).run({"TCP": packets}, splitter, 10.0)
    assert batches_equal(reference.outputs[output], oneshot.outputs[output])
    if seed % 2 == 0:
        assert_matches_centralized(oracle or dag, packets, oneshot)
    return oneshot, stream


def assert_rebalanced_matches_oneshot(
    workload, seed, engine, execution="inprocess"
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
    ps = PartitioningSet.of("srcIP")
    # merge_local_partitions=False keeps one subplan per partition, the
    # granularity the directory migrates at.
    placement = Placement(hosts, 2, merge_local_partitions=False)
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    splitter = HashSplitter(placement.num_partitions, ps)
    policy = RebalancePolicy(threshold=1.1, window=1, cooldown=1)
    faults = None
    if seed % 3 == 0:
        faults = FaultPlan.of(
            Fault("delay", rng.randrange(hosts), 1, 2, delay=2)
        )
    oneshot = ClusterSimulator(
        dag, plan, stream_rate=1000, engine=engine
    ).run({"TCP": packets}, splitter, 10.0)
    stream = ClusterSimulator(
        dag, plan, stream_rate=1000, engine=engine
    ).run_streaming(
        {"TCP": packets}, splitter, 10.0, rebalance=policy, faults=faults,
        execution=execution, workers=WORKERS,
    )
    assert set(oneshot.outputs) == set(stream.outputs)
    for name in oneshot.outputs:
        assert batches_equal(oneshot.outputs[name], stream.outputs[name]), name
    assert oneshot.node_output_counts == stream.node_output_counts
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


def shed_trial(workload, seed, engine, hosts, fraction, modes):
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
    ps = PartitioningSet.of("srcIP")
    placement = Placement(hosts, 2)
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    splitter = HashSplitter(placement.num_partitions, ps)
    epochs = len({p["time"] for p in packets})
    # Floor of 4: at 1-2 rows/epoch there is nothing left to *rank* and
    # which row survives is pure tie-breaking luck for either policy.
    capacity = max(4, int(len(packets) / epochs / hosts * fraction))
    sim = ClusterSimulator(dag, plan, stream_rate=1000, engine=engine)
    reference = sim.run_streaming({"TCP": packets}, splitter, 10.0)
    trials = []
    for mode in modes:
        bounded = sim.run_streaming(
            {"TCP": packets}, splitter, 10.0, **mode(capacity)
        )
        for stats in bounded.flow_stats.values():
            assert stats.conserves()
        assert sum(s.total_dropped for s in bounded.flow_stats.values()) > 0
        recall = per_query_recall(reference.outputs, bounded.outputs)
        scores = [v for v in recall.values() if not math.isnan(v)]
        assert scores, "reference run produced no output to recall"
        trials.append((bounded, sum(scores) / len(scores)))
    return trials


def assert_shedding_dominates(workload, seed, engine, execution="inprocess"):
    """One randomized shedding-quality trial.

    A hot-key trace (the same shape the rebalance sweep uses — skew is
    what makes group-level doom accounting pay off) runs three times at
    identical per-host capacity (see :func:`shed_trial`): unbounded (the
    recall reference), semantic shedding, and a blind ``drop-newest``
    queue.  The oracle asserts that the semantic run's mean per-query
    recall is at least the blind run's, and — when
    ``execution="parallel"`` — that the forked-worker semantic run is
    byte-identical to the in-process one: outputs, per-node counts,
    per-query shed attribution, and the per-epoch flow series (value
    hints ride the worker protocol, so the shed decisions themselves must
    match row for row).

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
        workload, seed, engine, hosts, fraction, modes
    )
    assert sum(semantic.shed_counts.values()) > 0
    assert semantic_mean >= blind_mean - 1e-9, (
        f"semantic recall {semantic_mean:.4f} < blind {blind_mean:.4f} "
        f"(workload={workload} seed={seed} fraction={fraction})"
    )
    for run, _ in forked:
        assert run.execution == "parallel"
        assert set(run.outputs) == set(semantic.outputs)
        for name in semantic.outputs:
            assert batches_equal(semantic.outputs[name], run.outputs[name]), name
        assert run.node_output_counts == semantic.node_output_counts
        assert run.shed_counts == semantic.shed_counts
        assert run.flow_stats == semantic.flow_stats
    return semantic_mean, blind_mean
