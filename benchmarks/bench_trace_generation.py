"""Trace generation's speed and memory, measured inside one process.

Two hard assertions on the §6.3 benchmark trace (experiment 3's config
at 40k rows/s for 20 s, flow-size tail 2.5: about 800k rows and 40k
flows):

* ``generate_trace`` takes at most 8x as long as ``np.argsort`` of as
  many random doubles (interleaved best of 5 each), a yardstick that
  moves with the machine.  It reads 3.2-3.7x on a 2-core Xeon; a loop
  making one NumPy call per flow and column reads about 65x.
* Its ``tracemalloc`` peak is at most 1.4x the bytes of the columns it
  returns.  It reads 1.24x: the nine int64 columns plus the sort
  permutation and the row-to-flow index.  One more trace-length int64
  temporary kept alive adds 0.11x.

Set-up time, of which generation is most, is ``benchmarks/e2e``'s
``setup_s``; ``traces.generate_rows_per_s`` is its per-layer reading.
"""

import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.traces import generate_trace
from repro.workloads.experiments import experiment3_trace_config

CONFIG = replace(experiment3_trace_config(7), rate=40_000, heavy_tail_alpha=2.5)
MAX_YARDSTICKS = 8.0
MAX_PEAK_PER_COLUMN_BYTE = 1.4


def _seconds(work):
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def wall_and_yardstick(generate, repeats=5):
    """Best-of-``repeats`` walls of ``generate(CONFIG)`` and of the
    yardstick, taken in turns."""
    values = np.random.default_rng(0).random(CONFIG.total_packets())
    wall = yardstick = float("inf")
    for _ in range(repeats):
        wall = min(wall, _seconds(lambda: generate(CONFIG)))
        yardstick = min(yardstick, _seconds(lambda: np.argsort(values)))
    return wall, yardstick


def peak_and_column_bytes(generate):
    tracemalloc.start()
    try:
        trace = generate(CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(column.nbytes for column in trace.columns.values())


def test_generation_speed_and_peak_memory():
    wall, yardstick = wall_and_yardstick(generate_trace)
    peak, column_bytes = peak_and_column_bytes(generate_trace)
    print(
        f"\ngeneration {wall * 1e3:.1f} ms, {wall / yardstick:.2f}x the "
        f"yardstick's {yardstick * 1e3:.1f} ms; tracemalloc peak "
        f"{peak / 2**20:.1f} MiB, {peak / column_bytes:.2f}x the columns' "
        f"{column_bytes / 2**20:.1f} MiB"
    )
    assert wall <= MAX_YARDSTICKS * yardstick, (
        f"generation took {wall / yardstick:.1f}x the yardstick"
    )
    assert peak <= MAX_PEAK_PER_COLUMN_BYTE * column_bytes, (
        f"generation peaked at {peak / column_bytes:.2f}x its columns' bytes"
    )
