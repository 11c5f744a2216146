"""Columnar/row kernel ratios, measured inside one process.

Three hard assertions: the vectorized aggregation kernel is at least 5x
the row operator, the vectorized join at least 10x, and the vectorized
sliding-window FULL kernel at least 5x the row ``SlidingAggregateOp``,
each on the same input in the same process, so the ratio transfers
between machines where an absolute throughput would not.  Whole-run
throughput and per-kernel wall time are ``benchmarks/e2e``'s job
(``rows_per_s``, ``engine.<kind>_ms``), which also fails any run that
falls back off the columnar engine.
"""

import time

import pytest

from repro.engine import (
    ColumnBatch,
    build_columnar_operator,
    build_operator,
    build_variant_kernel,
    build_variant_operator,
)
from repro.traces import TraceConfig, generate_trace
from repro.workloads import (
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
    relabelled by window end, merged by the tumbling SUPER) ≥5x the row
    ``SlidingAggregateOp``."""
    _, dag = sliding_flows_catalog(window_panes=3, slide_panes=1)
    node = dag.node("sliding_flows")
    row_op = build_variant_operator(node)
    col_op = build_variant_kernel(node)
    row_time = _best_of(row_op.process, trace.packets)
    col_time = _best_of(col_op.process, trace.column_batch())
    speedup = row_time / col_time
    assert speedup >= 5.0, f"sliding kernel only {speedup:.1f}x faster than row"
