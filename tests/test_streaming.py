"""Epoch-sliced streaming execution: parity, bounded memory, timelines.

The contract under test: ``ClusterSimulator.run_streaming`` produces the
*same simulation* as ``run`` — identical output multisets, per-node tuple
counts, per-host per-category CPU charges, and per-link network counters —
while only ever holding one epoch's worth of tuples at a node boundary,
and additionally reporting per-epoch metric series.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import DistKind
from repro.engine import ColumnBatch, batches_equal
from repro.engine import streaming as streaming_module
from repro.engine.operators import build_operator
from repro.engine.streaming import (
    ColumnBuffer,
    lower_bound,
    mapped_watermark,
    merge_watermarks,
    share_releases,
)
from repro.expr.expressions import Attr, Binary, Const, Func
from repro.expr.vectorizer import vectorize_expr
from repro.partitioning import PartitioningSet
from repro.runtime import EngineBackend
from repro.traces import slice_by_epoch
from repro.workloads import subnet_jitter_catalog, suspicious_flows_catalog

from tests.parity import (
    PS_CHOICES,
    SOURCES,
    WORKLOADS,
    assert_same_simulation,
    deploy,
    outer_join_plan,
    qset_dag,
    tcp_source,
)
from tests.split_reference import reference_split


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
    to the same three partitions by hand: a NULLPAD partition is the
    outer join over an empty opposite side."""
    dag, plan = outer_join_plan(catalog_factory())
    splitter = RoundRobinSplitter(plan.num_partitions)
    sim = ClusterSimulator(dag, plan, stream_rate=1000)
    result = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
    flows = [
        build_operator(dag.node("flows")).process(part)
        for part in reference_split(splitter, tiny_trace.packets)
    ]
    join = build_operator(dag.node("pairs"))
    expected = (
        join.process(flows[0], flows[0])
        + join.process(flows[1], [])
        + join.process([], flows[2])
    )
    assert batches_equal(result.outputs["pairs"], expected)


# -- keyed-once buffers and shared release groups -------------------------------

_KEY = vectorize_expr(Binary("/", Attr("t"), Const(2)))


def _keyed_batch(keys, first_id):
    """A batch with temporal column ``t``, a row id and a tuple-valued
    (unzipped composite) state column."""
    ids = np.arange(first_id, first_id + len(keys), dtype=np.int64)
    return ColumnBatch(
        {
            "t": np.asarray(keys, dtype=np.int64),
            "id": ids,
            "state": (ids * 2, ids.astype(np.float64) / 4),
        },
        len(keys),
    )


def _rows(batch):
    return [(row["t"], row["id"], row["state"]) for row in batch.to_rows()]


_batch_keys = st.one_of(
    st.just([]),
    st.integers(0, 12).flatmap(lambda key: st.lists(st.just(key), min_size=1, max_size=5)),
    st.lists(st.integers(0, 12), min_size=1, max_size=6),
)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _batch_keys),
        st.tuples(st.just("take"), st.one_of(st.integers(0, 7), st.just(math.inf))),
        st.tuples(st.just("merged"), st.none()),
        st.tuples(st.just("drain"), st.none()),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(_operations)
def test_buffer_matches_concat_and_mask(operations):
    """``ColumnBuffer`` against the reference it replaced: concatenate
    everything retained, key it, and mask.  Released and retained rows
    both keep buffer order."""
    buffer = ColumnBuffer(_KEY)
    reference = []
    next_id = 0
    for kind, argument in operations:
        if kind == "add":
            batch = _keyed_batch(argument, next_id)
            next_id += len(argument)
            buffer.add(batch)
            reference.extend(_rows(batch))
        elif kind == "take":
            released = [row for row in reference if row[0] // 2 < argument]
            reference = [row for row in reference if row[0] // 2 >= argument]
            assert _rows(buffer.take_below(argument)) == released
        elif kind == "merged":
            assert _rows(buffer.merged()) == reference
            assert buffer.keys().tolist() == [row[0] // 2 for row in reference]
        else:
            assert _rows(buffer.drain()) == reference
            reference = []
        assert len(buffer) == len(reference)
    assert _rows(buffer.merged()) == reference


def test_buffer_keys_each_batch_once():
    """A batch is keyed once, when the first release needs its keys: not
    once per step it stays, and not again after a straddling release
    split it.  A batch released whole is handed on as it came."""
    calls = []

    def key_fn(columns, length):
        calls.append(length)
        return _KEY(columns, length)

    buffer = ColumnBuffer(key_fn)
    first = _keyed_batch([10, 11], 0)  # key 5
    buffer.add(first)
    for _ in range(4):  # retained: key 5 is not below 5
        buffer.add(ColumnBatch({}, 0))
        assert len(buffer.take_below(5)) == 0
    assert buffer.take_below(6) is first
    buffer.add(_keyed_batch([12, 14], 2))  # keys 6 and 7: straddles 7
    assert [row[1] for row in _rows(buffer.take_below(7))] == [2]
    assert [row[1] for row in _rows(buffer.take_below(8))] == [3]
    assert calls == [2, 2]
    assert len(buffer) == 0


def test_siblings_share_one_release_decision(monkeypatch, tiny_trace):
    """Flows aggregates over one input with the same temporal expression
    evaluate that expression's lower bound once per step between them,
    each still reporting the shared buffer's rows as its own."""
    dag = qset_dag(6)
    plan = DistributedOptimizer(dag, Placement(1, 1), None).optimize()
    nodes = [
        node
        for node in plan.topological()
        if node.query is not None and node.query.startswith("flows_")
    ]
    temporal = {dag.node(node.query).group_by[0].expr for node in nodes}
    assert len(temporal) == 3 and len(nodes) == 6  # epochs 1, 2, 3: pairs
    calls = Counter()
    bound = streaming_module.lower_bound
    depth = []

    def counted(expr, bounds):
        if expr in temporal and not depth:  # not time/2's own time
            calls[expr] += 1
        depth.append(expr)
        try:
            return bound(expr, bounds)
        finally:
            depth.pop()

    monkeypatch.setattr(streaming_module, "lower_bound", counted)
    sim = ClusterSimulator(dag, plan, stream_rate=1000)
    result = sim.run_streaming({"TCP": tiny_trace.packets}, RoundRobinSplitter(1), 5.0)
    epochs = result.timeline.num_epochs
    assert calls == {expr: epochs for expr in temporal}  # the flush asks none

    backend = EngineBackend(dag)
    snodes = {node.node_id: backend.streaming_node(node) for node in nodes}
    (source,) = {node.inputs[0] for node in nodes}
    share_releases([(source, snode) for snode in snodes.values()])
    (_, first), (after, _) = slice_by_epoch(tiny_trace.column_batch(), "time")[:2]
    held = {}
    for node in nodes:
        snodes[node.node_id].step([first], [{"time": after}], flush=False)
        expr = dag.node(node.query).group_by[0].expr
        held.setdefault(expr, set()).add(snodes[node.node_id].buffered_rows())
    # Both siblings of a class report the one shared buffer's rows.
    assert all(len(counts) == 1 for counts in held.values())
    assert held[Attr("time")] == {0}  # time/1 released the whole epoch
    assert {len(first)} in held.values()  # a coarser class still waits


def _spy_on_kernel(kernel):
    """Route a (fresh backend's) kernel's ``process`` calls through a
    recorder; returns the list of calls."""
    calls = []
    process = kernel.process

    def spy(*batches):
        calls.append(batches)
        return process(*batches)

    kernel.process = spy
    return calls


def test_idle_steps_call_no_kernel():
    """An aggregate or join with no input rows and nothing buffered
    answers with the cached empty batch: after that batch is built, no
    step reaches the kernel — an epoch step or the flush."""
    dag = subnet_jitter_catalog()[1]
    plan = DistributedOptimizer(dag, Placement(1, 1), None, deliver=["jitter"]).optimize()
    backend = EngineBackend(dag)
    nothing = ColumnBatch({}, 0)
    for node in plan.topological():
        if node.query not in ("tcp_flows", "jitter"):
            continue
        compiled = backend.compile_node(node)
        empty = compiled.empty()
        calls = _spy_on_kernel(compiled)
        snode = backend.streaming_node(node)
        arity = compiled.arity
        for bounds, flush in (({"time": 3, "tb": 3}, False), ({}, True)):
            output, _ = snode.step([nothing] * arity, [bounds] * arity, flush)
            assert output is empty
        assert calls == []


def test_empty_batch_is_built_once():
    dag = subnet_jitter_catalog()[1]
    plan = DistributedOptimizer(dag, Placement(1, 1), None).optimize()
    backend = EngineBackend(dag)
    for node in plan.topological():
        if node.kind is DistKind.SOURCE:
            continue
        compiled = backend.compile_node(node)
        calls = _spy_on_kernel(compiled)
        first = compiled.empty()
        assert compiled.empty() is first and len(first) == 0
        assert len(calls) == 1


def test_shared_empty_batches_survive_a_query_set_run(tiny_trace):
    """Every node of an operator answers idle steps with one cached empty
    batch, and a merge of all-empty inputs hands that very batch on
    (``ColumnBatch.concat`` returns ``batches[0]``).  After a run whose
    hosts sit idle most steps, each cached batch is still empty with its
    original columns: nothing downstream wrote into it."""
    dag = qset_dag(6)
    sim, splitter = deploy(dag, 3, PartitioningSet.of("srcIP & 0xffff0000"))
    cached = {
        key: (compiled.empty(), list(compiled.empty().names()))
        for key, compiled in sim.session.backend.cached_operators.items()
    }
    result = sim.run_streaming({"TCP": tiny_trace.packets}, splitter, 5.0)
    assert result.outputs.row_count() > 0
    for key, (batch, names) in cached.items():
        compiled = sim.session.backend.cached_operators[key]
        assert compiled.empty() is batch
        assert len(batch) == 0 and batch.names() == names
        for column in batch.columns.values():
            assert len(column) == 0
