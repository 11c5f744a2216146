"""Trace generation against the per-flow loop, measured inside one process.

Two hard assertions on the §6.3 benchmark trace (experiment 3's config
at 40k rows/s for 20 s, flow-size tail 2.5: about 800k rows and 40k
flows): ``generate_trace`` is at least 3x as fast as the reference loop
in ``tests/trace_reference.py``, and its ``tracemalloc`` peak is no
higher than the loop's.  Both sides also produce the same columns.
Set-up time, of which generation is most, is ``benchmarks/e2e``'s
``setup_s``; ``traces.generate_rows_per_s`` is its per-layer reading.
"""

import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.traces import generate_trace
from repro.workloads.experiments import experiment3_trace_config
from tests.trace_reference import reference_trace

CONFIG = replace(experiment3_trace_config(7), rate=40_000, heavy_tail_alpha=2.5)


def _wall(generate, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        generate(CONFIG)
        best = min(best, time.perf_counter() - started)
    return best


def _peak_bytes(generate):
    tracemalloc.start()
    try:
        trace = generate(CONFIG)
        return trace, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_speedup_and_peak_memory():
    loop_wall = _wall(reference_trace, repeats=1)
    wall = _wall(generate_trace, repeats=3)
    expected, loop_peak = _peak_bytes(reference_trace)
    trace, peak = _peak_bytes(generate_trace)
    for name, column in expected.columns.items():
        np.testing.assert_array_equal(trace.columns[name], column, err_msg=name)
    speedup = loop_wall / wall
    print(
        f"\n{trace.num_packets} rows: {wall:.3f} s vs the loop's "
        f"{loop_wall:.3f} s ({speedup:.1f}x); tracemalloc peak "
        f"{peak / 2**20:.1f} vs {loop_peak / 2**20:.1f} MiB"
    )
    assert speedup >= 3.0, f"generation only {speedup:.1f}x the loop"
    assert peak <= loop_peak, (
        f"generation peaked at {peak / 2**20:.1f} MiB, the loop at "
        f"{loop_peak / 2**20:.1f} MiB"
    )
