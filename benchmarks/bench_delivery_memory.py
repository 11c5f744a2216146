"""A result holds one query's delivered rows at a time, gated on
``tracemalloc`` peaks measured inside one process.

A run keeps each query's delivered column batches; ``result.outputs[q]``
builds that query's row dicts from them on read, and the result keeps
the list read last only until the next read (or for good, if the caller
changed it).  Row dicts cost several times their columns' bytes, so a
result that kept every list would hold every query's rows at once.  The
gate streams the paper's section 6.2 query set (subnet statistics, the
tcp_flows feed and the per-flow jitter self-join, all three delivered)
over a 40k-row experiment-2 trace on 2 hosts, then reads every delivered
query one after another, dropping each list before the next read.  One
hard assertion: the traced peak of that pass is at most 1.25x the peak
of building the largest query's rows on its own; keeping them all would
reach their sum, 1.62x here.  ``peak_rss_mb`` on ``benchmarks/e2e``'s
``jitter_join`` is the end-to-end reading of the same thing.
"""

import tracemalloc
from dataclasses import replace

from repro.traces import generate_trace
from repro.workloads import subnet_jitter_catalog
from repro.workloads.experiments import (
    experiment2_configurations,
    experiment2_trace_config,
    run_configuration,
)

MAX_PEAK_OVER_LARGEST = 1.25


def _traced_peak(read) -> int:
    """Bytes ``read()`` holds at its peak above what was live before."""
    tracemalloc.reset_peak()
    live = tracemalloc.get_traced_memory()[0]
    read()
    return tracemalloc.get_traced_memory()[1] - live


def test_reading_every_query_holds_one_query_at_a_time():
    trace = generate_trace(replace(experiment2_trace_config(7), rate=4000, duration=10))
    _, dag = subnet_jitter_catalog()
    optimal = experiment2_configurations()[2]
    outputs = run_configuration(dag, trace, optimal, 2, streaming=True).result.outputs
    assert set(outputs) == {"subnet_stats", "jitter", "tcp_flows"}
    tracemalloc.start()
    try:
        # Each query alone, through a mapping of its own that dies with
        # the read, so nothing it might keep reaches the pass below.
        alone = {
            name: _traced_peak(lambda: type(outputs)(outputs.batches)[name])
            for name in outputs
        }

        def read_all():
            for name in outputs:
                rows = outputs[name]
                assert len(rows) == outputs.row_count(name) > 0
                del rows

        peak = _traced_peak(read_all)
    finally:
        tracemalloc.stop()
    largest = max(alone.values())
    print(
        f"\nreading {len(outputs)} queries in turn peaked at "
        f"{peak / 2**20:.2f} MiB; alone: "
        + ", ".join(f"{name} {size / 2**20:.2f}" for name, size in alone.items())
        + f" MiB ({peak / largest:.2f}x the largest, gate "
        f"<= {MAX_PEAK_OVER_LARGEST})"
    )
    assert peak <= MAX_PEAK_OVER_LARGEST * largest, (
        f"reading the queries one after another peaked at {peak / largest:.2f}x "
        "the largest query's rows: the result kept rows it had delivered"
    )
