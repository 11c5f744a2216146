"""Measurement of one workload: set-up, timed loop, traced pass, check.

One repetition is the whole user-visible pipeline — GSQL text in,
delivered rows out — on a pre-generated trace.  It is a closed loop with
one client: the next repetition starts when the previous one has
delivered (``complex_parallel`` adds ``min(2, nproc)`` forked workers,
forked inside every repetition, as users pay it).

Untraced repetitions give the end-to-end metrics, traced repetitions
the per-layer metrics, and the difference between the two kinds is the
reported tracing overhead.  Outputs are verified outside the timed
region, and the output check runs after the timed loops so that its
memory does not count towards ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import adapter
from metrics import PER_LAYER
from tracing import Tracer, span_factory
from workloads import EPSILON, Workload

#: Set-ups per run that reports ``setup_s`` (their median is reported).
SETUPS = 3
MIN_REPS = 3
#: The row-engine oracle runs on a trace of this share of the rows.
CHECK_SCALE = 1 / 20
#: Repetitions whose spans are written to ``trace_<workload>.json``.
TRACE_FILE_REPS = 3
#: With tracing on, one repetition in this many runs untraced.
TRACED_PERIOD = 3
WITHIN_EPSILON_RATE = 0.95

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
_SHM = "/dev/shm"

Digest = Tuple[int, str]


def digest(rows: List[dict]) -> Digest:
    """Row count + sha256 over the lexicographically sorted columns.

    Order-independent and stable across processes (``hash()`` is not:
    ``PYTHONHASHSEED`` randomises it).
    """
    sha = hashlib.sha256()
    if not rows:
        return 0, sha.hexdigest()
    names = sorted(rows[0])
    columns = []
    for name in names:
        column = np.asarray([row[name] for row in rows])
        if column.dtype == object:  # NULLs from outer joins
            column = np.asarray([repr(value) for value in column])
        columns.append(column)
    order = np.lexsort(columns[::-1])
    for name, column in zip(names, columns):
        sha.update(f"{name}:{column.dtype};".encode())
        sha.update(np.ascontiguousarray(column[order]).tobytes())
    return len(rows), sha.hexdigest()


def _shm_segments() -> frozenset:
    try:
        return frozenset(os.listdir(_SHM))
    except OSError:
        return frozenset()


def default_workers(workload: Workload) -> Optional[int]:
    if workload.execution != "parallel":
        return None
    return min(2, os.cpu_count() or 1)


def deploy(workload: Workload, script: str, trace, tracer: Optional[Tracer] = None):
    return adapter.deploy(
        script,
        workload.params,
        workload.partitioning,
        workload.deliver,
        trace,
        workload.capacity_experiment,
        tracer,
    )


@dataclass
class Rep:
    """What one repetition leaves behind — small numbers only: the
    delivered rows themselves are dropped once they are digested."""

    wall: float = 0.0
    epochs: List[float] = field(default_factory=list)
    digests: Dict[str, Digest] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    leaked: int = 0
    #: Counts and modeled accounting read off the result object.
    facts: Dict[str, object] = field(default_factory=dict)
    #: Traced repetitions: seconds per span name (``Tracer.totals``).
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.facts)


def run_rep(
    workload: Workload,
    script: str,
    trace,
    workers: Optional[int],
    tracer: Optional[Tracer] = None,
    execution: Optional[str] = None,
    doctor: Optional[Callable[[object], None]] = None,
) -> Rep:
    """One timed repetition plus its (untimed) verification.

    ``execution`` overrides the workload's executor — the traced pass
    runs the parallel workload's in-process twin this way.  ``doctor``
    may tamper with the result before it is verified; the self-tests use
    it to prove that every check can go red.
    """
    span = span_factory(tracer)
    execution = execution or workload.execution
    rep = Rep()
    segments = _shm_segments()
    try:
        started = time.perf_counter()
        with span("rep"):
            deployment = deploy(workload, script, trace, tracer)
            with span("runtime.session.execute"):
                result, rep.epochs = adapter.execute(
                    deployment,
                    trace,
                    workload.streaming,
                    execution,
                    workers if execution == "parallel" else None,
                )
        rep.wall = time.perf_counter() - started
    except Exception as error:  # a failed repetition is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        rep.failures.append(f"raised {error!r}")
        return rep
    if doctor is not None:
        doctor(result)
    rep.digests = {name: digest(result.outputs[name]) for name in deployment.delivered}
    rep.failures.extend(result_failures(workload, result, execution))
    rep.leaked = len(_shm_segments() - segments)
    if rep.leaked:
        rep.failures.append(f"leaked {rep.leaked} segment(s) in {_SHM}")
    rep.facts = {
        "queries": deployment.queries,
        "candidates": deployment.candidates,
        "plan_nodes": deployment.plan_nodes,
        "fallback_nodes": len(result.fallback_nodes),
        "peak_batch_rows": result.peak_batch_rows or 0,
        "steps": sum(stats.steps for stats in result.node_stats.values()),
        "charge_calls": getattr(deployment.recorder, "calls", 0),
        "engine": adapter.engine_counters(deployment, result),
        "modeled": adapter.cluster_counters(result),
    }
    return rep


def result_failures(workload: Workload, result, execution: str) -> List[str]:
    """Silent degradations visible on the result object alone."""
    failures = []
    if result.fallback_nodes:
        failures.append(f"row fallback at {sorted(result.fallback_nodes)}")
    if result.execution != execution:
        failures.append(f"asked for {execution}, ran {result.execution}")
    if workload.approximate and not result.outputs[workload.approximate[1]]:
        failures.append("approximate query emitted no rows")
    return failures


def digest_failures(rep: Rep, reference: Dict[str, Digest]) -> List[str]:
    return [
        f"query {name}: {rep.digests.get(name)} != reference {expected}"
        for name, expected in reference.items()
        if rep.digests.get(name) != expected
    ]


# -- the output check ------------------------------------------------------------------


def approximate_errors(exact_rows, approx_rows) -> Tuple[int, float]:
    """``(underestimates, share of estimates within eps * window total)``
    of the approximate query's answers against the exact query's."""
    truth = {}
    window_cnt: Dict[int, int] = {}
    window_bytes: Dict[int, int] = {}
    for row in exact_rows:
        truth[(row["tb"], row["srcIP"], row["destIP"])] = (row["cnt"], row["bytes"])
        window_cnt[row["tb"]] = window_cnt.get(row["tb"], 0) + row["cnt"]
        window_bytes[row["tb"]] = window_bytes.get(row["tb"], 0) + row["bytes"]
    under = within = total = 0
    for row in approx_rows:
        exact_cnt, exact_bytes = truth.get(
            (row["tb"], row["srcIP"], row["destIP"]), (0, 0)
        )
        for estimate, exact, scale in (
            (row["cnt"], exact_cnt, window_cnt.get(row["tb"], 0)),
            (row["bytes"], exact_bytes, window_bytes.get(row["tb"], 0)),
        ):
            under += estimate < exact
            within += estimate - exact <= EPSILON * scale
            total += 1
    return under, (within / total if total else 0.0)


def check_outputs(
    workload: Workload, script: str, trace, seed: int, scale: float
) -> Tuple[Dict[str, Digest], List[str]]:
    """The output check; returns ``(reference digests, problems)``.

    On a check trace of 1/20 of the rows the centralized columnar run
    must equal the oracle — the row engine's ``run_centralized``, the
    paper's Sec. 3.4 definition, or the workload's own brute-force
    reference — for every exactly-answered delivered query.  On the full
    trace the same centralized deployment yields the reference digest
    each timed repetition must reproduce.
    """
    problems: List[str] = []
    exact_name, approx_name = workload.approximate or (None, None)

    def centralized(on_trace):
        deployment = adapter.deploy(
            script, workload.params, None, workload.deliver, on_trace,
            workload.capacity_experiment, centralized=True,
        )
        result, _ = adapter.execute(deployment, on_trace, streaming=True)
        return deployment, result

    small = workload.trace(seed, scale * CHECK_SCALE)
    deployment, result = centralized(small)
    if workload.reference is not None:
        oracle = workload.reference(small.columns)
    else:
        oracle = adapter.oracle_outputs(deployment, small)
    for name in deployment.delivered:
        if name != approx_name and not adapter.same_rows(
            result.outputs[name], oracle[name]
        ):
            problems.append(f"check trace: query {name} differs from the oracle")
    if approx_name is not None:
        result, _ = adapter.execute(
            deploy(workload, script, small), small, workload.streaming
        )
        under, within = approximate_errors(
            result.outputs[exact_name], result.outputs[approx_name]
        )
        if under:
            problems.append(f"check trace: {under} approximate underestimates")
        if within < WITHIN_EPSILON_RATE:
            problems.append(
                f"check trace: only {within:.3f} of approximate estimates "
                "are within epsilon (or none were emitted)"
            )
    deployment, result = centralized(trace)
    reference = {
        name: digest(result.outputs[name])
        for name in deployment.delivered
        if name != approx_name
    }
    return reference, problems


# -- measurement -------------------------------------------------------------------------


def _timed_loop(
    budget: float, make_rep: Callable[[int], Rep], min_reps: int
) -> List[Rep]:
    reps: List[Rep] = []
    began = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - began < budget:
        reps.append(make_rep(len(reps)))
    return reps


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def _probe_ms(call: Callable[[], object]) -> float:
    walls = []
    for _ in range(MIN_REPS):
        started = time.perf_counter()
        call()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls) * 1e3


def _peak_rss_mb(workload: Workload) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.execution == "parallel":
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    untraced: bool = True,
    traced: bool = True,
    scale: float = 1.0,
    import_s: float = 0.0,
    workers: Optional[int] = None,
    doctor: Optional[Callable[[object], None]] = None,
) -> dict:
    """Run one workload and return its report (``run.py`` prints it).

    ``untraced`` selects the end-to-end metrics (and the three set-ups
    ``setup_s`` is the median of), ``traced`` the per-layer ones.
    """
    if workers is None:
        workers = default_workers(workload)
    script = workload.script(seed)

    # Set-up: trace generation, the first (cold) deploy, one warm-up run.
    setup_walls, generate_walls = [], []
    for _ in range(SETUPS if untraced else 1):
        started = time.perf_counter()
        trace = workload.trace(seed, scale)
        generate_walls.append(time.perf_counter() - started)
        warm_up = run_rep(workload, script, trace, workers, doctor=doctor)
        setup_walls.append(time.perf_counter() - started)

    # With tracing on, every third repetition still runs untraced: the
    # two kinds alternate so that machine drift cancels out of the
    # tracing overhead they are compared for.
    tracer = Tracer()

    def make_rep(index: int) -> Rep:
        if not traced or index % TRACED_PERIOD == 0:
            return run_rep(workload, script, trace, workers, doctor=doctor)
        first_span = len(tracer.spans)
        rep = run_rep(workload, script, trace, workers, tracer, doctor=doctor)
        rep.spans = tracer.totals(first_span)
        if tracer.rep >= TRACE_FILE_REPS:
            # Summed already; a growing span list would slow later
            # repetitions (every span is one more object for the GC).
            del tracer.spans[first_span:]
        tracer.rep += 1
        return rep

    timed = _timed_loop(
        seconds, make_rep, MIN_REPS * (TRACED_PERIOD if traced else 1)
    )
    peak_rss_mb = _peak_rss_mb(workload)

    twin: List[Rep] = []
    if traced and workload.execution == "parallel":
        twin = [
            run_rep(workload, script, trace, None, execution="inprocess")
            for _ in range(MIN_REPS)
        ]

    # The output check, after the timed loops (see the module docstring).
    started = time.perf_counter()
    reference, problems = check_outputs(workload, script, trace, seed, scale)
    if workload.approximate:
        # The approximate answer has no exact reference: it must repeat.
        name = workload.approximate[1]
        reference[name] = warm_up.digests.get(name)
    check_s = time.perf_counter() - started

    for index, rep in enumerate([warm_up] + timed + twin):
        if rep.ok:
            rep.failures.extend(digest_failures(rep, reference))
        problems += [f"rep {index}: {failure}" for failure in rep.failures]

    plain = [rep for rep in timed if rep.ok and not rep.spans]
    with_spans = [rep for rep in timed if rep.ok and rep.spans]
    # One more deployment, for the standalone probes of the splitter.
    probe = deploy(workload, script, trace)
    pieces = adapter.splitter_pieces(trace, workload.streaming)
    load = _load_facts(workload, trace, warm_up, workers, probe, pieces)
    load["runs"] = len(plain)
    load["epoch_samples"] = sum(len(rep.epochs) for rep in plain)
    load["traced_runs"] = len(with_spans)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "scale": scale,
        "correct": not problems,
        "attempted": len(timed),
        "failed": sum(1 for rep in timed if rep.failures),
        "problems": problems,
        "digests": warm_up.digests,
        "load": load,
        "end_to_end": {},
        "per_layer": {},
    }
    if untraced and plain:
        modeled = plain[-1].facts["modeled"]
        report["end_to_end"] = {
            "rows_per_s": trace.num_packets
            / statistics.median(rep.wall for rep in plain),
            "epoch_p50_ms": _median_ms(e for rep in plain for e in rep.epochs),
            "epoch_slowest_ms": _median_ms(max(rep.epochs) for rep in plain),
            "setup_s": import_s + statistics.median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
            "agg_cpu_pct": modeled["agg_cpu_pct"],
            "agg_net_tuples_per_s": modeled["agg_net_tuples_per_s"],
        }
    if traced and plain and with_spans:
        report["per_layer"] = _per_layer(
            workload, trace, with_spans, plain, [rep for rep in twin if rep.ok],
            probe, pieces, load, statistics.median(generate_walls), check_s,
        )
        _write_trace(workload, tracer, report)
    return report


def _load_facts(workload: Workload, trace, rep: Rep, workers, probe, pieces) -> dict:
    """The load every printed row ran at."""
    columns = trace.columns
    counts = adapter.assign_partitions(probe, pieces)
    return {
        "rows": trace.num_packets,
        "epochs": len(np.unique(columns["time"])),
        "groups": len(np.unique((columns["srcIP"] << 32) | columns["destIP"])),
        "hosts": adapter.NUM_HOSTS,
        "partitions": len(counts),
        "splitter": probe.splitter.describe(),
        "partition_skew": max(counts) / (sum(counts) / len(counts)),
        "streaming": workload.streaming,
        "execution": workload.execution,
        "workers": workers,
        "delivered_rows": {name: count for name, (count, _) in rep.digests.items()},
    }


def _per_layer(
    workload, trace, reps, plain, twin, probe, pieces, load, generate_s, check_s
) -> Dict[str, float]:
    """Every per-layer metric: medians over the traced repetitions, plus
    standalone probes where the run loop has no seam."""

    def span_ms(name: str, key: str = "total") -> float:
        return _median_ms(rep.spans.get(name, {}).get(key, 0.0) for rep in reps)

    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    facts = reps[-1].facts
    frontend = (
        "gsql.load_script", "plan.dag", "partitioning.search",
        "distopt.optimize", "runtime.backend.compile",
    )
    for name in frontend:
        values[f"{name}_ms"] = span_ms(name)
    values["frontend.share"] = sum(
        values[f"{name}_ms"] for name in frontend
    ) / span_ms("rep")
    values["gsql.queries"] = facts["queries"]
    values["partitioning.candidates"] = facts["candidates"]
    values["distopt.plan_nodes"] = facts["plan_nodes"]
    values["runtime.backend.fallback_nodes"] = facts["fallback_nodes"]

    values["traces.generate_s"] = generate_s
    values["traces.generate_rows_per_s"] = trace.num_packets / generate_s
    values["traces.slice_ms"] = _probe_ms(lambda: adapter.epoch_slices(trace))

    values["runtime.backend.prepare_ms"] = span_ms("runtime.backend.prepare")
    values["runtime.backend.split_ms"] = span_ms("runtime.backend.split")
    values["cluster.splitter.assign_ms"] = _probe_ms(
        lambda: adapter.assign_partitions(probe, pieces)
    )
    values["engine.columnar.gather_ms"] = (
        values["runtime.backend.split_ms"] - values["cluster.splitter.assign_ms"]
    )
    values["cluster.splitter.rows"] = load["rows"]
    values["cluster.splitter.skew"] = load["partition_skew"]

    for layer, entry in facts["engine"].items():
        values[f"{layer}_rows_in"] = entry["rows_in"]
        values[f"{layer}_rows_out"] = entry["rows_out"]
        if workload.execution == "parallel":
            # Operators ran in the workers: no driver-side span exists.
            values[f"{layer}_ms"] = _median_ms(
                rep.facts["engine"][layer]["wall_seconds"] for rep in reps
            )
        else:
            values[f"{layer}_ms"] = span_ms(layer)
    values["engine.streaming.peak_batch_rows"] = facts["peak_batch_rows"]

    values["runtime.metrics.replay_ms"] = span_ms("runtime.metrics.replay")
    values["runtime.metrics.charge_calls"] = facts["charge_calls"]
    values["runtime.session.execute_ms"] = span_ms("runtime.session.execute")
    values["runtime.session.other_ms"] = span_ms("runtime.session.execute", "self")
    values["runtime.session.steps"] = facts["steps"]
    values["runtime.session.delivered_rows"] = sum(
        count for count, _ in reps[-1].digests.values()
    )

    if workload.execution == "parallel":
        pool_start, pool_close = [], []
        for _ in range(MIN_REPS):
            started = time.perf_counter()
            pool = adapter.start_pool(probe, load["workers"])
            forked = time.perf_counter()
            pool.close()
            pool_start.append(forked - started)
            pool_close.append(time.perf_counter() - forked)
        values["runtime.parallel.pool_start_ms"] = _median_ms(pool_start)
        values["runtime.parallel.pool_close_ms"] = _median_ms(pool_close)
        values["runtime.parallel.wall_ms"] = _median_ms(rep.wall for rep in plain)
        values["runtime.parallel.twin_wall_ms"] = _median_ms(rep.wall for rep in twin)
        values["runtime.parallel.speedup"] = (
            values["runtime.parallel.twin_wall_ms"]
            / values["runtime.parallel.wall_ms"]
        )
        busy = statistics.median(
            sum(entry["wall_seconds"] for entry in rep.facts["engine"].values())
            for rep in reps
        )
        values["runtime.parallel.worker_busy_share"] = busy / (
            load["workers"] * values["runtime.session.execute_ms"] / 1e3
        )
        values["runtime.parallel.shm_leaked"] = sum(
            rep.leaked for rep in plain + reps
        )

    for name, value in facts["modeled"].items():
        if name in values:
            values[name] = value
    values["bench.check_s"] = check_s
    values["bench.tracing_overhead_pct"] = 100.0 * (
        statistics.median(rep.wall for rep in reps)
        / statistics.median(rep.wall for rep in plain)
        - 1.0
    )
    return values


def _write_trace(workload: Workload, tracer: Tracer, report: dict) -> None:
    """Write the kept repetitions' spans, once, after measuring."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"trace_{workload.name}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": report["seed"],
                "load": report["load"],
                "spans": tracer.export(),
            },
            handle,
        )
        handle.write("\n")
