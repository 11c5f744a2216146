"""Kernel ratios, measured inside one process.

Seven hard assertions: the vectorized aggregation kernel is at least 5x
the row operator, the vectorized join at least 10x, the vectorized
sliding-window FULL kernel at least 15x the row ``WindowAggregateOp``,
the round-robin split into strided views, followed by the pairwise
host merge, at least 2x the counting-sort split of the same assignment
followed by the same merge, the order-free group factorization a
COUNT(*) aggregate uses at least 1.3x the order-carrying one on the same
keys, the SKETCH_SUB kernel of an approximate node costs at most
3.5x the exact SUB kernel of the same node, and a WHERE filter that
gathers every column through one index array is at least 1.3x one that
indexes each column with the boolean mask.  Each pair runs on the same
input in the same process, so the
ratio transfers between machines where an absolute throughput would
not.  Whole-run throughput and per-kernel wall time are
``benchmarks/e2e``'s job (``rows_per_s``, ``engine.<kind>_ms``), which
also fails any run that falls back off the columnar engine.
"""

import time

import numpy as np
import pytest

from repro.cluster.splitter import RoundRobinSplitter, gather_partitions
from repro.engine import (
    ColumnBatch,
    build_columnar_operator,
    build_operator,
    build_variant_kernel,
    build_variant_operator,
)
from repro.engine.columnar import _filter, _group
from repro.expr.vectorizer import vectorize_key
from repro.traces import TraceConfig, generate_trace
from repro.workloads import (
    approx_heavy_catalog,
    complex_catalog,
    sliding_flows_catalog,
    suspicious_flows_catalog,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(duration=5, rate=2000, num_taps=1, seed=13))


@pytest.fixture(scope="module")
def join_inputs():
    """(dag, heavy_flows rows) with a build side big enough (~2k rows)
    that the join kernels, not per-call overhead, dominate the timing."""
    join_trace = generate_trace(
        TraceConfig(
            duration=60,
            rate=2000,
            num_taps=1,
            seed=13,
            num_src_hosts=1024,
            num_dst_hosts=64,
        )
    )
    _, dag = complex_catalog()
    flows = build_operator(dag.node("flows")).process(join_trace.packets)
    heavy = build_operator(dag.node("heavy_flows")).process(flows)
    return dag, heavy


def _best_of(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_aggregation_speedup(trace):
    """The acceptance bar: vectorized aggregation ≥5x the row operator."""
    _, dag = suspicious_flows_catalog()
    node = dag.node("suspicious_flows")
    row_op = build_operator(node)
    col_op = build_columnar_operator(node)
    row_time = _best_of(row_op.process, trace.packets)
    col_time = _best_of(col_op.process, trace.column_batch())
    speedup = row_time / col_time
    assert speedup >= 5.0, f"columnar only {speedup:.1f}x faster than row"


def test_columnar_join_speedup(join_inputs):
    """The acceptance bar: the vectorized join ≥10x the row operator."""
    dag, heavy = join_inputs
    node = dag.node("flow_pairs")
    row_op = build_operator(node)
    col_op = build_columnar_operator(node)
    col_in = ColumnBatch.from_rows(heavy)
    row_time = _best_of(row_op.process, heavy, heavy)
    col_time = _best_of(col_op.process, col_in, col_in)
    speedup = row_time / col_time
    assert speedup >= 10.0, f"columnar join only {speedup:.1f}x faster than row"


def test_columnar_sliding_speedup(trace):
    """The acceptance bar: the vectorized sliding FULL kernel (panes,
    relabelled by window end, merged by the tumbling SUPER) ≥15x the row
    ``WindowAggregateOp``.  That operator is the oracle's definition — it
    folds every row once per window that reads it, about 3x the work of
    folding panes once and merging them — so the bar is the 5x a pane
    reassembling row operator had to clear, scaled by that slowdown."""
    _, dag = sliding_flows_catalog(window_panes=3, slide_panes=1)
    node = dag.node("sliding_flows")
    row_op = build_variant_operator(node)
    col_op = build_variant_kernel(node)
    row_time = _best_of(row_op.process, trace.packets)
    col_time = _best_of(col_op.process, trace.column_batch())
    speedup = row_time / col_time
    assert speedup >= 15.0, f"sliding kernel only {speedup:.1f}x faster than row"


def test_round_robin_view_split_speedup():
    """The acceptance bar: a round-robin split is strided views, so split
    plus each host's merge of its two partitions is ≥2x the counting-sort
    gather of the same partitions plus the same merge."""
    rows = 200_000
    rng = np.random.default_rng(13)
    batch = ColumnBatch(
        {
            "srcIP": rng.integers(0, 2**32, rows, dtype=np.int64),
            "destPort": rng.integers(0, 2**16, rows, dtype=np.int64),
            "len": rng.integers(40, 1500, rows, dtype=np.int64),
        },
        rows,
    )
    splitter = RoundRobinSplitter(8)

    def merged(parts):
        return [ColumnBatch.concat(parts[i : i + 2]) for i in range(0, len(parts), 2)]

    def views():
        return merged(splitter.split_columns(batch))

    def counting_sort():
        ids = splitter.assign_indices(batch)
        return merged(gather_partitions(batch, ids, splitter.num_partitions))

    for fast, slow in zip(views(), counting_sort()):
        for name in batch.names():
            assert np.array_equal(fast.column(name), slow.column(name))
    speedup = _best_of(counting_sort) / _best_of(views)
    assert speedup >= 2.0, f"view split only {speedup:.1f}x the counting sort"


def test_order_free_group_speedup():
    """The acceptance bar: on the section 6.3 ``flows`` keys (``time/2,
    srcIP, destIP``) of a ~200k-row trace, the order-free factorization
    (index-free codes, keys read back from the sort) is >=1.3x the
    order-carrying one, with the same groups, counts and keys."""
    batch = generate_trace(
        TraceConfig(duration=20, rate=10_000, num_taps=1, seed=13)
    ).column_batch()
    _, dag = complex_catalog()
    key_fn = vectorize_key([g.expr for g in dag.node("flows").group_by])
    keys = key_fn(batch.columns, len(batch))
    _, starts, counts, group_keys = _group(keys, len(batch))
    order, free_starts, free_counts, free_keys = _group(keys, len(batch), False)
    assert order is None
    assert np.array_equal(starts, free_starts)
    assert np.array_equal(counts, free_counts)
    for ordered_key, free_key in zip(group_keys, free_keys):
        assert np.array_equal(ordered_key, free_key)
    ordered_time = _best_of(_group, keys, len(batch), True, repeats=15)
    free_time = _best_of(_group, keys, len(batch), False, repeats=15)
    speedup = ordered_time / free_time
    assert speedup >= 1.3, f"order-free group only {speedup:.2f}x the ordered one"


def test_sketch_sub_cost_ratio():
    """The acceptance bar: on one batch shaped like the ``sliding_sketch``
    benchmark's (a Zipf(1.1) stream over 10 000 ``(srcIP, destIP)``
    groups, 6 panes of 8 000 rows), the SKETCH_SUB kernel of
    ``approx_heavy`` costs <=3.5x the SUB kernel of the same node.  Both
    factorize the same groups; the sketch adds the key hash for every
    ``aggregates x depth`` lane and the grid fold.  Timed interleaved,
    best of 15 each, so host drift hits both sides alike."""
    groups, panes, pane_rows = 10_000, 6, 8_000
    rng = np.random.default_rng(7)
    weights = 1.0 / np.arange(1, groups + 1) ** 1.1
    keys = rng.permutation(groups)[
        rng.choice(groups, size=panes * pane_rows, p=weights / weights.sum())
    ]
    batch = ColumnBatch(
        {
            "time": np.repeat(np.arange(panes, dtype=np.int64), pane_rows),
            "srcIP": 0x0A000000 + keys // 64,
            "destIP": 0xC0A80000 + keys % 64,
            "len": rng.integers(40, 1500, len(keys)),
        },
        len(keys),
    )
    _, dag = approx_heavy_catalog(window_panes=3, slide_panes=1)
    node = dag.node("approx_heavy")
    sketch = build_variant_kernel(node, "sketch_sub")
    exact = build_variant_kernel(node, "sub")
    assert len(sketch.process(batch)) == panes
    best_sketch = best_exact = float("inf")
    for _ in range(15):
        best_sketch = min(best_sketch, _best_of(sketch.process, batch, repeats=1))
        best_exact = min(best_exact, _best_of(exact.process, batch, repeats=1))
    ratio = best_sketch / best_exact
    assert ratio <= 3.5, f"sketch SUB costs {ratio:.2f}x the exact SUB"


def test_index_filter_speedup():
    """The acceptance bar: on one epoch of a ``qset96_deploy``-shaped
    batch (the five columns its ``flows_*`` nodes read, at their trace
    widths, ~2k rows) under its ``destPort = 80`` filter (one row in
    six), ``_filter``'s one index gather per column is >=1.3x indexing
    every column with the mask, with the same rows.  Timed interleaved,
    best of 15 each.  It reads 2.4-2.5x on a 2-core Xeon."""
    trace = generate_trace(TraceConfig(seed=7, mean_flow_packets=16.0))
    start, stop = np.searchsorted(trace.columns["time"], [10, 11])
    epoch = trace.column_batch().slice(int(start), int(stop))
    columns = {
        name: epoch.column(name)
        for name in ("time", "srcIP", "destIP", "destPort", "len")
    }
    length = len(epoch)
    mask = columns["destPort"] == 80
    by_index, kept = _filter(columns, length, mask)
    by_mask = {name: column[mask] for name, column in columns.items()}
    assert 0 < kept < length / 3
    for name, column in by_mask.items():
        assert np.array_equal(by_index[name], column)
    best_index = best_mask = float("inf")
    for _ in range(15):
        best_index = min(best_index, _best_of(_filter, columns, length, mask, repeats=20))
        best_mask = min(
            best_mask,
            _best_of(lambda: {name: c[mask] for name, c in columns.items()}, repeats=20),
        )
    speedup = best_mask / best_index
    assert speedup >= 1.3, f"index filter only {speedup:.2f}x the mask filter"
