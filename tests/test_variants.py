"""The aggregation variant seam: dispatch, optimizer choice, execution.

Covers the refactored aggregation path end to end:

* ``build_variant_kernel`` routes every (node shape, variant) pair to
  the right kernel class — the seam the backend compiles through;
* the optimizer splits accuracy-clause queries into
  SKETCH_SUB/SKETCH_SUPER, never chooses sketches without a clause, and
  defers to the cost model's sketch-transfer term when one is supplied;
* full simulations surface the chosen variant per node, keep the
  streaming/one-shot equivalence intact and meet the centralized oracle;
* sketch results respect the declared accuracy against the exact
  oracle, and every epsilon-heavy key is reported;
* the approximate answer itself is pinned: its digest on two fixed
  traces, one-shot and streaming, was recorded before the sketch pair
  became kernels, and candidate keys stay Python scalars;
* the reason the sketch variant exists: aggregator ingress that stays
  constant while the exact split's grows with group cardinality.
"""

import collections
import hashlib
import random

import numpy as np
import pytest

from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import DistKind, Variant
from repro.engine import ColumnBatch, batches_equal, canonical
from repro.engine import variants
from repro.engine.columnar import (
    ColumnarAggregateOp,
    ColumnarSubAggregateOp,
    ColumnarSuperAggregateOp,
)
from repro.engine.variants import (
    ColumnarSketchSubOp,
    ColumnarSlidingOp,
    build_variant_kernel,
)
from repro.partitioning import PartitioningSet
from repro.partitioning.cost_model import CostModel
from repro.plan import QueryDag
from repro.workloads import approx_heavy_catalog, sliding_flows_catalog
from tests.parity import (
    SOURCES,
    assert_matches_centralized,
    assert_same_simulation,
    assert_within_sketch_bounds,
    deploy,
    random_packets,
    tcp_source,
)

WINDOW_PANES = 3


@pytest.fixture
def sliding_dag():
    _, dag = sliding_flows_catalog(window_panes=WINDOW_PANES, slide_panes=1)
    return dag


@pytest.fixture
def approx_dag():
    _, dag = approx_heavy_catalog(
        epsilon=0.05, confidence=0.95, window_panes=WINDOW_PANES, slide_panes=1
    )
    return dag


# -- dispatch ----------------------------------------------------------------


def test_variant_dispatch_for_windowed_aggregation(sliding_dag):
    node = sliding_dag.node("sliding_flows")
    assert isinstance(build_variant_kernel(node, "full"), ColumnarSlidingOp)
    assert isinstance(build_variant_kernel(node, "sub"), ColumnarSubAggregateOp)
    assert isinstance(build_variant_kernel(node, "super"), ColumnarSlidingOp)


def test_variant_dispatch_for_tumbling_aggregation(catalog):
    node = catalog.define_query(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time as tb, srcIP",
    )
    assert isinstance(build_variant_kernel(node, "full"), ColumnarAggregateOp)
    assert isinstance(build_variant_kernel(node, "sub"), ColumnarSubAggregateOp)
    assert isinstance(build_variant_kernel(node, "super"), ColumnarSuperAggregateOp)


def test_variant_dispatch_for_sketches(approx_dag):
    node = approx_dag.node("approx_heavy")
    assert isinstance(build_variant_kernel(node, "sketch_sub"), ColumnarSketchSubOp)
    # windows are reassembled like the exact ones, over summary rows
    assert isinstance(build_variant_kernel(node, "sketch_super"), ColumnarSlidingOp)
    with pytest.raises(ValueError):
        build_variant_kernel(node, "bogus")


def test_sketch_variant_requires_accuracy_clause(sliding_dag):
    node = sliding_dag.node("sliding_flows")
    with pytest.raises(ValueError):
        build_variant_kernel(node, "sketch_sub")
    with pytest.raises(ValueError):
        build_variant_kernel(node, "sketch_super")


# -- cost model --------------------------------------------------------------


def test_sketch_transfer_term_is_rate_independent(approx_dag):
    low = CostModel(approx_dag, 1_000)
    high = CostModel(approx_dag, 1_000_000)
    sites = 4
    assert low.sketch_transfer_bytes("approx_heavy", sites) == (
        high.sketch_transfer_bytes("approx_heavy", sites)
    )
    # Exact SUB shipping grows with the rate; the summary does not.
    assert high.sub_transfer_bytes("approx_heavy") > (
        low.sub_transfer_bytes("approx_heavy")
    )


def test_prefers_sketch_flips_with_scale(approx_dag):
    assert not CostModel(approx_dag, 200).prefers_sketch("approx_heavy", 6)
    assert CostModel(approx_dag, 1_000_000).prefers_sketch("approx_heavy", 6)


def test_sketch_transfer_undefined_without_clause(sliding_dag):
    model = CostModel(sliding_dag, 1_000_000)
    assert not model.prefers_sketch("sliding_flows", 6)
    with pytest.raises(ValueError):
        model.sketch_transfer_bytes("sliding_flows")


# -- optimizer ---------------------------------------------------------------


def _variants(plan, query):
    return collections.Counter(
        node.variant
        for node in plan.nodes.values()
        if node.kind is DistKind.OP and node.query == query
    )


def test_optimizer_splits_approx_into_sketch_pair(approx_dag):
    placement = Placement(3, 2)
    optimizer = DistributedOptimizer(approx_dag, placement, None)
    plan = optimizer.optimize()
    counts = _variants(plan, "approx_heavy")
    assert counts[Variant.SKETCH_SUB] == 3
    assert counts[Variant.SKETCH_SUPER] == 1
    assert "SKETCH_SUB/SKETCH_SUPER" in optimizer.report.decisions["approx_heavy"]


def test_optimizer_never_sketches_exact_queries(sliding_dag):
    """Exactness is never traded away silently: an identical query without
    the accuracy clause takes the exact SUB/SUPER split."""
    placement = Placement(3, 2)
    plan = DistributedOptimizer(sliding_dag, placement, None).optimize()
    counts = _variants(plan, "sliding_flows")
    assert counts[Variant.SKETCH_SUB] == 0
    assert counts[Variant.SKETCH_SUPER] == 0
    assert counts[Variant.SUB] == 3
    assert counts[Variant.SUPER] == 1


def test_optimizer_defers_to_cost_model(approx_dag):
    placement = Placement(3, 2)
    cheap = CostModel(approx_dag, 200)
    plan = DistributedOptimizer(
        approx_dag, placement, None, cost_model=cheap
    ).optimize()
    assert _variants(plan, "approx_heavy")[Variant.SKETCH_SUB] == 0

    heavy = CostModel(approx_dag, 1_000_000)
    plan = DistributedOptimizer(
        approx_dag, placement, None, cost_model=heavy
    ).optimize()
    assert _variants(plan, "approx_heavy")[Variant.SKETCH_SUB] == 3


def test_compatible_partitioning_still_pushes_full(approx_dag):
    """A partitioning compatible with the group-by keeps the exact FULL
    push even for approximate queries — exactness at no network premium
    beats a sketch."""
    placement = Placement(3, 2)
    ps = PartitioningSet.of("srcIP", "destIP")
    optimizer = DistributedOptimizer(approx_dag, placement, ps)
    plan = optimizer.optimize()
    counts = _variants(plan, "approx_heavy")
    assert counts[Variant.SKETCH_SUB] == 0
    assert counts[Variant.FULL] == 3
    assert "pushed FULL" in optimizer.report.decisions["approx_heavy"]


# -- execution ---------------------------------------------------------------


def _run(dag, packets, source="row", hosts=3, ps=None, **stream_kwargs):
    sim, splitter = deploy(dag, hosts, ps)
    trace = tcp_source(packets, source)
    oneshot = sim.run(trace, splitter, 10.0)
    stream = sim.run_streaming(trace, splitter, 10.0, **stream_kwargs)
    return oneshot, stream


@pytest.mark.parametrize("source", SOURCES)
def test_sliding_execution_parity(sliding_dag, source):
    packets = random_packets(23)
    oneshot, stream = _run(sliding_dag, packets, source)
    assert_same_simulation(oneshot, stream)
    assert_matches_centralized(sliding_dag, packets, oneshot)
    assert set(oneshot.node_variants.values()) == {"sub", "super"}


@pytest.mark.parametrize("source", SOURCES)
def test_sketch_execution_parity(approx_dag, source):
    packets = random_packets(23)
    oneshot, stream = _run(approx_dag, packets, source)
    assert_same_simulation(oneshot, stream)
    assert_within_sketch_bounds(
        approx_dag, packets, oneshot.outputs["approx_heavy"]
    )
    assert set(oneshot.node_variants.values()) == {"sketch_sub", "sketch_super"}


def test_sketch_identical_across_engines(approx_dag):
    """The sketch path is deterministic, not merely bounded: a second
    deployment of the same plan reproduces every estimate, whichever
    form the trace arrives in."""
    packets = random_packets(29)
    rows, _ = _run(approx_dag, packets, "row")
    columns, _ = _run(approx_dag, packets, "columnar")
    assert batches_equal(
        rows.outputs["approx_heavy"], columns.outputs["approx_heavy"]
    )


def test_sketch_parallel_execution_matches(approx_dag):
    """Summaries crossing real process boundaries (pickled through the
    worker pipes) must not change the simulation."""
    packets = random_packets(31)
    oneshot, stream = _run(approx_dag, packets, execution="parallel")
    assert_same_simulation(oneshot, stream)


def test_sliding_full_push_matches_central(sliding_dag):
    """Compatible partitioning pushes windowed FULL copies per host; their
    union must equal the single-host central answer exactly."""
    packets = random_packets(37)
    ps = PartitioningSet.of("srcIP")
    pushed, _ = _run(sliding_dag, packets, ps=ps)
    assert set(pushed.node_variants.values()) == {"full"}
    assert_matches_centralized(sliding_dag, packets, pushed)


def test_sketch_accuracy_against_oracle(approx_dag):
    """Estimates never undercount, overshoot eps*N only within the delta
    budget, and every epsilon-heavy key of every window is reported —
    and the check cannot pass on an answer that reports nothing."""
    packets = random_packets(11)
    oneshot, _ = _run(approx_dag, packets)
    assert_within_sketch_bounds(
        approx_dag, packets, oneshot.outputs["approx_heavy"]
    )
    with pytest.raises(AssertionError, match="missing heavy key"):
        assert_within_sketch_bounds(approx_dag, packets, [])


# -- the approximate answer, pinned ------------------------------------------


def _zipf_packets():
    """Six epochs of 1 500 rows over 400 (srcIP, destIP) groups, heavily
    skewed towards the low keys."""
    rng = random.Random(5)
    packets = []
    for epoch in range(6):
        for index in range(1500):
            key = int(400 * rng.random() ** 4)
            packets.append(
                {
                    "time": epoch,
                    "timestamp": epoch * 1_000_000 + index,
                    "srcIP": 0x0A000000 + key // 16,
                    "destIP": 0xC0A80000 + key % 16,
                    "srcPort": 1024,
                    "destPort": 80,
                    "protocol": 6,
                    "flags": 16,
                    "len": 40 + key % 1400,
                }
            )
    return packets


PIN_TRACES = {"random29": lambda: random_packets(29), "zipf": _zipf_packets}

#: sha256 of ``repr(canonical(answer))`` of ``approx_heavy`` on three
#: round-robin hosts, recorded when the sketch pair was per-row Python.
APPROX_DIGESTS = {
    "random29": "830378d8d88e40c64078a54617c36f739522fc8d78ae039a4e3e563682f0dfce",
    "zipf": "b690f2b3364560c404a2e5ba12f79e25e56a69bfba24918658cc641d8e58fa02",
}


def _approx_digest(dag, trace, streaming):
    sim, splitter = deploy(dag, 3, None)
    run = sim.run_streaming if streaming else sim.run
    result = run({"TCP": PIN_TRACES[trace]()}, splitter, 10.0)
    assert set(result.node_variants.values()) == {"sketch_sub", "sketch_super"}
    answer = canonical(result.outputs["approx_heavy"])
    return hashlib.sha256(repr(answer).encode()).hexdigest()


@pytest.mark.parametrize("streaming", (False, True), ids=("oneshot", "streaming"))
@pytest.mark.parametrize("trace", sorted(PIN_TRACES))
def test_approx_answer_is_pinned(approx_dag, trace, streaming):
    assert _approx_digest(approx_dag, trace, streaming) == APPROX_DIGESTS[trace]


def test_candidates_are_python_scalars(approx_dag):
    """``repr(np.int64(5))`` is ``'np.int64(5)'``: a NumPy scalar in a
    candidate key would change both the candidate order and its hash."""
    kernel = variants.build_variant_kernel(
        approx_dag.node("approx_heavy"), "sketch_sub"
    )
    out = kernel.process(ColumnBatch.from_rows(_zipf_packets()))
    summaries = out.columns[variants.SUMMARY_COLUMN]
    assert len(summaries) == 6
    for summary in summaries:
        assert type(summary.pane) is int and summary.candidates
        for key in summary.candidates:
            assert all(type(part) is int for part in key), key


def test_numpy_candidates_fail_the_pin(approx_dag, monkeypatch):
    """Known-bad companion: candidates emitted as ``np.int64`` tuples."""
    native = variants._key_tuples
    monkeypatch.setattr(
        variants,
        "_key_tuples",
        lambda keys, selector: [
            tuple(np.int64(part) for part in key)
            for key in native(keys, selector)
        ],
    )
    assert _approx_digest(approx_dag, "zipf", False) != APPROX_DIGESTS["zipf"]


# -- network payoff ----------------------------------------------------------


@pytest.fixture
def exact_heavy_dag(catalog):
    """``approx_heavy`` without the APPROX_ calls and the accuracy clause."""
    catalog.define_query(
        "heavy",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes "
        "FROM TCP GROUP BY time as tb, srcIP, destIP "
        f"RANGE {WINDOW_PANES} SLIDE 1",
    )
    return QueryDag.from_catalog(catalog)


def _heavy_hitter_packets(cardinality, epochs=4):
    """``cardinality`` (srcIP, destIP) groups at two rows per group per
    epoch: every tenth row belongs to one group — comfortably
    epsilon-heavy at 0.05, so the approximate query has something to
    report — and the rest spread uniformly, which keeps the exact run's
    partial-row count near the cardinality."""
    rng = random.Random(7)
    packets = []
    for epoch in range(epochs):
        for index in range(max(2_000, 2 * cardinality)):
            key = 0 if index % 10 == 0 else rng.randrange(cardinality)
            packets.append(
                {
                    "time": epoch,
                    "timestamp": epoch * 1_000_000 + index,
                    "srcIP": 0x0A000000 + key // 64,
                    "destIP": 0xC0A80000 + key % 64,
                    "srcPort": 1024,
                    "destPort": 80,
                    "protocol": 6,
                    "flags": 16,
                    "len": 40 + key % 1400,
                }
            )
    return packets


def _aggregator_ingress(dag, packets):
    """(bytes the aggregator received, rows delivered) for ``dag``'s one
    query streamed round-robin over four hosts."""
    sim, splitter = deploy(dag, 4, None)
    result = sim.run_streaming({"TCP": packets}, splitter, 10.0)
    (delivered,) = result.outputs.values()
    return result.network.bytes_received[result.aggregator], len(delivered)


def _assert_sketch_ships_5x_less(exact_dag, sketch_dag, packets):
    exact_bytes, _ = _aggregator_ingress(exact_dag, packets)
    sketch_bytes, delivered = _aggregator_ingress(sketch_dag, packets)
    assert delivered >= 1, "the approximate query reported nothing"
    ratio = exact_bytes / sketch_bytes
    assert ratio >= 5.0, (
        f"exact split ships {ratio:.1f}x the sketch's aggregator bytes, "
        f"floor 5x"
    )
    return sketch_bytes


def test_sketch_ingress_constant_and_5x_below_exact_at_10k_groups(
    exact_heavy_dag, approx_dag
):
    at_10k = _assert_sketch_ships_5x_less(
        exact_heavy_dag, approx_dag, _heavy_hitter_packets(10_000)
    )
    at_1k, delivered = _aggregator_ingress(
        approx_dag, _heavy_hitter_packets(1_000)
    )
    assert delivered >= 1
    assert at_1k == at_10k


def test_sketch_floor_rejects_exact_against_itself(exact_heavy_dag):
    with pytest.raises(AssertionError, match=r"ships 1\.0x"):
        _assert_sketch_ships_5x_less(
            exact_heavy_dag, exact_heavy_dag, _heavy_hitter_packets(1_000)
        )


def test_metrics_surface_sketch_categories(approx_dag):
    packets = random_packets(13)
    sim, splitter = deploy(approx_dag, 3, None, record_events=True)
    oneshot = sim.run({"TCP": packets}, splitter, 10.0)
    categories = set()
    for host in oneshot.hosts:
        categories.update(host.by_category)
    assert "sketch-sub" in categories
    assert "sketch-super" in categories
    compile_variants = {
        event.get("variant")
        for event in sim.metrics.events
        if event.get("event") == "compile"
    }
    assert {"sketch_sub", "sketch_super"} <= compile_variants
