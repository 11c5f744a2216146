"""The benchmark's metric definitions — names, units, directions, bounds.

``BENCHMARK.json`` at the repo root is generated from these tables
(``python benchmarks/e2e/run.py --print-contract``) and a self-test keeps
the two in step.

``bound`` is the share of the reference median by which a metric may
worsen before it is a regression.  ``exact`` marks the modeled metrics:
for one seed they are deterministic, so ``--compare`` requires them
bit-equal between two sets of the same commit; their ``bound`` only has
to cover the seed-to-seed variation the driver's spread check sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str
    exact: bool = False


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "rows_per_s", "rows/s", "higher", 0.25,
        "input rows / median repetition wall (GSQL text in -> delivered rows out)",
    ),
    EndToEnd(
        "epoch_p50_ms", "ms", "lower", 0.25,
        "median wall between consecutive epoch marks, all epochs of all "
        "repetitions (one-shot: the single step)",
    ),
    EndToEnd(
        "epoch_slowest_ms", "ms", "lower", 0.25,
        "median over repetitions of the slowest epoch of the repetition",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports + median of {trace generation + first deploy + warm-up run}",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "ru_maxrss of the driver after the timed loop (max with children "
        "for the parallel workload)",
    ),
    EndToEnd(
        "agg_cpu_pct", "%", "lower", 0.10,
        "paper Figs 8/10/13: modeled aggregator CPU load", exact=True,
    ),
    EndToEnd(
        "agg_net_tuples_per_s", "tuples/s", "lower", 0.25,
        "paper Figs 9/11/14: modeled tuples/s received by the aggregator",
        exact=True,
    ),
)

_ENGINE_KINDS = (
    "agg_full", "agg_sub", "agg_super", "join", "merge", "select",
    "sketch_sub", "sketch_super",
)

#: ``(name, unit, better)``; a metric that does not apply to a workload
#: (``runtime.parallel.*`` in-process, ``engine.join_ms`` without a join)
#: reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("gsql.load_script_ms", "ms", "lower"),
    ("gsql.queries", "count", "lower"),
    ("plan.dag_ms", "ms", "lower"),
    ("partitioning.search_ms", "ms", "lower"),
    ("partitioning.candidates", "count", "lower"),
    ("distopt.optimize_ms", "ms", "lower"),
    ("distopt.plan_nodes", "count", "lower"),
    ("runtime.backend.compile_ms", "ms", "lower"),
    ("runtime.backend.fallback_nodes", "count", "lower"),
    ("frontend.share", "ratio", "lower"),
    ("traces.generate_s", "s", "lower"),
    ("traces.generate_rows_per_s", "rows/s", "higher"),
    ("traces.slice_ms", "ms", "lower"),
    ("runtime.backend.prepare_ms", "ms", "lower"),
    ("runtime.backend.split_ms", "ms", "lower"),
    ("cluster.splitter.assign_ms", "ms", "lower"),
    ("engine.columnar.gather_ms", "ms", "lower"),
    ("cluster.splitter.rows", "count", "lower"),
    ("cluster.splitter.skew", "ratio", "lower"),
    *(
        (f"engine.{kind}_{suffix}", unit, "lower")
        for kind in _ENGINE_KINDS
        for suffix, unit in (("ms", "ms"), ("rows_in", "count"), ("rows_out", "count"))
    ),
    ("engine.streaming.peak_batch_rows", "count", "lower"),
    ("runtime.metrics.replay_ms", "ms", "lower"),
    ("runtime.metrics.charge_calls", "count", "lower"),
    ("runtime.session.execute_ms", "ms", "lower"),
    ("runtime.session.other_ms", "ms", "lower"),
    ("runtime.session.steps", "count", "lower"),
    ("runtime.session.delivered_rows", "count", "lower"),
    ("runtime.parallel.pool_start_ms", "ms", "lower"),
    ("runtime.parallel.pool_close_ms", "ms", "lower"),
    ("runtime.parallel.wall_ms", "ms", "lower"),
    ("runtime.parallel.twin_wall_ms", "ms", "lower"),
    ("runtime.parallel.speedup", "ratio", "higher"),
    ("runtime.parallel.worker_busy_share", "ratio", "higher"),
    ("runtime.parallel.shm_leaked", "count", "lower"),
    ("cluster.network.total_tuples", "count", "lower"),
    ("cluster.network.agg_bytes", "count", "lower"),
    ("cluster.host.peak_cpu_units", "count", "lower"),
    ("cluster.host.cpu_imbalance", "ratio", "lower"),
    ("bench.check_s", "s", "lower"),
    ("bench.tracing_overhead_pct", "%", "lower"),
)

#: Per-layer values that are counts of one seeded run: they must repeat
#: bit-for-bit between two sets of the same commit.
EXACT_PER_LAYER = tuple(
    name
    for name, unit, _ in PER_LAYER
    if name.startswith(("cluster.network.", "cluster.host."))
)

#: How long one driver run measures; also the default of ``--seconds``.
RUN_SECONDS = 10


def contract(workloads) -> dict:
    """The ``BENCHMARK.json`` this benchmark is written to."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
