"""Epoch-sliced streaming execution: parity, bounded memory, timelines.

The contract under test: ``ClusterSimulator.run_streaming`` produces the
*same simulation* as ``run`` — identical output multisets, per-node tuple
counts, per-host per-category CPU charges, and per-link network counters —
while only ever holding one epoch's worth of tuples at a node boundary,
and additionally reporting per-epoch metric series.
"""

import math
from collections import Counter

import pytest

from repro.cluster import ClusterSimulator, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import ColumnBatch, batches_equal
from repro.engine.operators import NullPadOp, build_operator
from repro.engine.streaming import lower_bound, mapped_watermark, merge_watermarks
from repro.expr.expressions import Attr, Binary, Const, Func

from repro.runtime import EngineBackend
from repro.workloads import subnet_jitter_catalog, suspicious_flows_catalog

from tests.parity import (
    PS_CHOICES,
    SOURCES,
    WORKLOADS,
    assert_same_simulation,
    deploy,
    outer_join_plan,
    tcp_source,
)


class TestLowerBound:
    def test_plain_attribute(self):
        assert lower_bound(Attr("time"), {"time": 7}) == 7

    def test_unbounded_attribute(self):
        assert lower_bound(Attr("time"), {}) is None

    def test_constant(self):
        assert lower_bound(Const(4), {}) == 4

    def test_integer_division_floors(self):
        # matches the evaluator: 7 / 2 over ints is floor division
        expr = Binary("/", Attr("time"), Const(2))
        assert lower_bound(expr, {"time": 7}) == 3

    def test_addition(self):
        expr = Binary("+", Attr("tb"), Const(1))
        assert lower_bound(expr, {"tb": 5}) == 6

    def test_scaling_by_negative_constant_is_unknown(self):
        expr = Binary("*", Attr("time"), Const(-1))
        assert lower_bound(expr, {"time": 5}) is None

    def test_mask_is_unknown(self):
        expr = Binary("&", Attr("srcIP"), Const(0xFF00))
        assert lower_bound(expr, {"srcIP": 10}) is None

    def test_function_is_unknown(self):
        assert lower_bound(Func("NOT", (Attr("time"),)), {"time": 1}) is None

    def test_infinity_marks_drained_stream(self):
        expr = Binary("/", Attr("time"), Const(2))
        assert lower_bound(expr, {"time": math.inf}) == math.inf

    def test_merge_keeps_common_columns_at_min(self):
        merged = merge_watermarks([{"time": 3, "tb": 1}, {"time": 5}])
        assert merged == {"time": 3}
        assert merge_watermarks([]) == {}

    def test_mapped_watermark_binds_outputs(self):
        fn = mapped_watermark(
            [("tb", Binary("/", Attr("time"), Const(2))), ("ip", Attr("srcIP"))]
        )
        assert fn([{"time": 8}]) == {"tb": 4}


def _run(source, dag, packets, hosts, ps, deliver, streaming):
    sim, splitter = deploy(dag, hosts, ps, deliver)
    return sim.run(
        tcp_source(packets, source), splitter, 10.0, streaming=streaming
    )


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("hosts", [1, 3])
@pytest.mark.parametrize("ps", PS_CHOICES, ids=str)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_streaming_matches_oneshot(workload, ps, hosts, source, tiny_trace):
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    oneshot = _run(source, dag, tiny_trace.packets, hosts, ps, deliver, False)
    stream = _run(source, dag, tiny_trace.packets, hosts, ps, deliver, True)
    assert_same_simulation(oneshot, stream)


@pytest.mark.parametrize("source", SOURCES)
def test_streaming_memory_bounded_by_epoch(source, tiny_trace):
    """No resident batch ever exceeds the largest single epoch."""
    epoch_sizes = Counter(p["time"] for p in tiny_trace.packets)
    largest_epoch = max(epoch_sizes.values())
    _, dag = suspicious_flows_catalog()
    stream = _run(source, dag, tiny_trace.packets, 3, PS_CHOICES[1], None, True)
    assert stream.peak_batch_rows <= largest_epoch
    assert stream.peak_batch_rows < len(tiny_trace.packets)


@pytest.mark.parametrize("source", SOURCES)
def test_streaming_memory_complex_workload(source, tiny_trace):
    """The complex workload buckets time/2, so state may span two epochs
    — but never more, and never the whole trace."""
    epoch_sizes = Counter(p["time"] for p in tiny_trace.packets)
    largest_epoch = max(epoch_sizes.values())
    catalog_fn, deliver = WORKLOADS["complex"]
    _, dag = catalog_fn()
    stream = _run(source, dag, tiny_trace.packets, 3, PS_CHOICES[1], deliver, True)
    assert stream.peak_batch_rows <= 2 * largest_epoch
    assert stream.peak_batch_rows < len(tiny_trace.packets)


class TestTimeline:
    @pytest.fixture(scope="class")
    def stream(self, tiny_trace):
        _, dag = suspicious_flows_catalog()
        return _run("row", dag, tiny_trace.packets, 3, PS_CHOICES[1], None, True)

    def test_one_entry_per_epoch(self, stream, tiny_trace):
        timeline = stream.timeline
        assert timeline.epochs == sorted({p["time"] for p in tiny_trace.packets})
        for series in timeline.host_cpu:
            assert len(series) == timeline.num_epochs
        for series in timeline.link_tuples.values():
            assert len(series) == timeline.num_epochs

    def test_series_sum_to_run_totals(self, stream):
        timeline = stream.timeline
        for host in stream.hosts:
            assert sum(timeline.host_cpu_series(host.index)) == pytest.approx(
                host.cpu_units
            )
        for link, series in timeline.link_tuples.items():
            assert sum(series) == stream.network.link_tuples[link]
        for link, series in timeline.link_bytes.items():
            assert sum(series) >= 0.0
        received = timeline.tuples_received_series(stream.aggregator)
        assert sum(received) == stream.network.tuples_received.get(
            stream.aggregator, 0
        )

    def test_render_is_a_table(self, stream):
        rendered = stream.timeline.render(stream.aggregator)
        lines = rendered.splitlines()
        assert len(lines) == stream.timeline.num_epochs + 1
        assert "agg recv" in lines[0]

    def test_oneshot_has_no_timeline(self, tiny_trace):
        _, dag = suspicious_flows_catalog()
        oneshot = _run("row", dag, tiny_trace.packets, 1, None, None, False)
        assert oneshot.timeline is None
        assert oneshot.peak_batch_rows is None


def test_streaming_join_answers_empty_steps_with_typed_batches():
    """The §6.2 jitter self-join, stepped by hand: before the watermark
    releases anything the join still answers with its kernel's typed,
    empty ``ColumnBatch`` — never a bare ``[]`` leaking into
    ``StepOutcome.returns`` and delivery."""
    _, dag = subnet_jitter_catalog()
    plan = DistributedOptimizer(
        dag, Placement(1, 1), None, deliver=["jitter"]
    ).optimize()
    (node,) = [n for n in plan.topological() if n.query == "jitter"]
    join = EngineBackend(dag).streaming_node(node)
    names = [column.name for column in dag.node("jitter").columns]
    key = {"srcIP": 1, "destIP": 2, "srcPort": 80, "destPort": 443}
    flows = ColumnBatch.from_rows([
        {"tb": 3, **key, "first_ts": 3100, "last_ts": 3900, "cnt": 5},
        {"tb": 4, **key, "first_ts": 4200, "last_ts": 4800, "cnt": 5},
    ])
    nothing = ColumnBatch({}, 0)
    # No bound yet (everything buffers), then a bound below every
    # buffered row (nothing releases).
    for batch, bounds in ((flows, {}), (nothing, {"tb": 3})):
        output, _ = join.step([batch, batch], [bounds, bounds], flush=False)
        assert type(output) is ColumnBatch and len(output) == 0
        assert output.names() == names
    assert join.buffered_rows() == 4
    output, _ = join.step([nothing, nothing], [{}, {}], flush=True)
    assert output.to_rows() == [{"tb": 3, **key, "gap": 300}]


# -- outer-join + NULLPAD plans ------------------------------------------------


@pytest.mark.parametrize("source", SOURCES)
def test_outer_join_nullpad_streaming_parity(source, catalog_factory, tiny_trace):
    dag, plan = outer_join_plan(catalog_factory())
    splitter = RoundRobinSplitter(plan.num_partitions)
    sim = ClusterSimulator(dag, plan, stream_rate=1000)
    trace = tcp_source(tiny_trace.packets, source)
    oneshot = sim.run(trace, splitter, 10.0)
    stream = sim.run_streaming(trace, splitter, 10.0)
    assert_same_simulation(oneshot, stream)
    rows = stream.outputs["pairs"]
    padded = [r for r in rows if r["total"] is None]
    joined = [r for r in rows if r["total"] is not None]
    assert padded and joined  # both the NULL-arithmetic and matched paths ran


def test_outer_join_engine_parity(catalog_factory, tiny_trace):
    """The hand-built plan is not the centralized query (partition 0
    joins alone), so its reference is the oracle's own operators applied
    to the same three partitions by hand."""
    dag, plan = outer_join_plan(catalog_factory())
    splitter = RoundRobinSplitter(plan.num_partitions)
    sim = ClusterSimulator(dag, plan, stream_rate=1000)
    result = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
    flows = [
        build_operator(dag.node("flows")).process(part)
        for part in splitter.split(tiny_trace.packets)
    ]
    pairs = dag.node("pairs")
    expected = (
        build_operator(pairs).process(flows[0], flows[0])
        + NullPadOp(pairs, "left").process(flows[1])
        + NullPadOp(pairs, "right").process(flows[2])
    )
    assert batches_equal(result.outputs["pairs"], expected)
    assert result.fallback_nodes == {}
