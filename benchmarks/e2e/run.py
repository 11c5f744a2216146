#!/usr/bin/env python3
"""End-to-end benchmark: GSQL text in -> delivered rows out, by layer.

One workload (what the benchmark driver runs)::

    python3 benchmarks/e2e/run.py --workload jitter_join --seed 7 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` adds the traced pass and reports the per-layer
metrics; without ``--trace`` both are reported.  The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``; the exit code is non-zero if any output check failed.

A full set (every workload, each in a fresh process), and the
repeatability check of two sets of one commit::

    python3 benchmarks/e2e/run.py --all --out /tmp/A.json
    python3 benchmarks/e2e/run.py --compare /tmp/A.json /tmp/B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _print_report(report: dict, units: dict) -> None:
    load = report["load"]
    print(
        f"== {report['workload']}  seed {report['seed']}  scale {report['scale']}  "
        f"rows {load['rows']}  epochs {load['epochs']}  groups {load['groups']}  "
        f"partition skew {load['partition_skew']:.3f}  ({load['splitter']}; "
        f"{'streaming' if load['streaming'] else 'one-shot'}, {load['execution']}"
        + (f", {load['workers']} workers" if load["workers"] else "")
        + ")"
    )
    print(f"   why: {report['why']}")
    print(f"   delivered rows: {load['delivered_rows']}")
    for section, runs in (
        ("end_to_end", f"{load['runs']} untraced runs, {load['epoch_samples']} epoch samples"),
        ("per_layer", f"{load['traced_runs']} traced runs"),
    ):
        if not report[section]:
            continue
        print(f"-- {section} ({runs}; failed {report['failed']} of {report['attempted']})")
        for name, value in report[section].items():
            print(f"   {name:<36} {value:>16.4f} {units[name]}")
    for problem in report["problems"]:
        print(f"!! {problem}")


def _contract_line(report: dict, units: dict) -> str:
    metrics = {**report["end_to_end"], **report["per_layer"]}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def _stop_children() -> None:
    """End, and wait for, every process this run started.

    The forked workers of a parallel run are stopped by the program's own
    pool; any that an exception left behind is killed here.  The driver's
    shared-memory segments start the standard library's resource tracker,
    which by default outlives its parent by a moment; it is stopped last,
    because it only ends once no process holds its pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def run_one(args) -> int:
    try:
        return _run_one(args)
    finally:
        _stop_children()


def _run_one(args) -> int:
    began = time.perf_counter()
    import harness  # pulls in NumPy and the program: charged to setup_s
    import_s = time.perf_counter() - began
    from metrics import END_TO_END, PER_LAYER
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        print(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}",
              file=sys.stderr)
        return 2
    report = harness.measure(
        BY_NAME[args.workload],
        args.seed,
        args.seconds,
        untraced=args.trace != 1,
        traced=args.trace != 0,
        scale=args.scale,
        import_s=import_s,
    )
    units = {metric.name: metric.unit for metric in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    _print_report(report, units)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print(_contract_line(report, units))
    return 0 if report["correct"] else 1


def _machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
    }


def run_all(args) -> int:
    from workloads import WORKLOADS

    reports = {}
    status = 0
    for workload in WORKLOADS:
        part = f"{args.out}.{workload.name}.part"
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scale", str(args.scale),
            "--report", part,
        ]
        status |= subprocess.run(command).returncode
        with open(part) as handle:
            reports[workload.name] = json.load(handle)
        os.remove(part)
    with open(args.out, "w") as handle:
        json.dump(
            {"machine": _machine(), "seed": args.seed, "seconds": args.seconds,
             "scale": args.scale, "workloads": reports},
            handle, indent=1,
        )
        handle.write("\n")
    print(f"wrote {args.out}")
    return status


def compare(first_path: str, second_path: str) -> int:
    """Two sets of one commit must agree within every metric's bound."""
    from metrics import END_TO_END, EXACT_PER_LAYER

    with open(first_path) as handle:
        first = json.load(handle)["workloads"]
    with open(second_path) as handle:
        second = json.load(handle)["workloads"]
    disagreements = []
    for name in sorted(set(first) | set(second)):
        if name not in first or name not in second:
            disagreements.append(f"{name}: missing from one set")
            continue
        a, b = first[name], second[name]
        for report in (a, b):
            if not report["correct"] or report["failed"]:
                disagreements.append(
                    f"{name}: failed {report['failed']} of {report['attempted']} "
                    f"runs; {report['problems'][:1]}"
                )
        for metric in END_TO_END:
            x, y = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            if metric.exact:
                if x != y:
                    disagreements.append(f"{name} {metric.name}: {x!r} != {y!r} (exact)")
            elif abs(y - x) > metric.bound * x:
                disagreements.append(
                    f"{name} {metric.name}: {x:.4f} vs {y:.4f} {metric.unit} differ "
                    f"by {abs(y - x) / x:.1%} of the first, bound {metric.bound:.0%}"
                )
        for layer in EXACT_PER_LAYER:
            x, y = a["per_layer"][layer], b["per_layer"][layer]
            if x != y:
                disagreements.append(f"{name} {layer}: {x!r} != {y!r} (exact)")
    for line in disagreements:
        print(line)
    print(f"{len(disagreements)} disagreement(s) between {first_path} and {second_path}")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    from metrics import RUN_SECONDS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--print-contract", action="store_true",
                        help="print the BENCHMARK.json this benchmark implements")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed loops measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every trace (self-tests use 0.05)")
    parser.add_argument("--report", help="also write the full report here")
    parser.add_argument("--out", help="where --all writes the set")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.print_contract:
        from metrics import contract
        from workloads import WORKLOADS

        print(json.dumps(contract(WORKLOADS), indent=2))
        return 0
    if args.all:
        if not args.out:
            parser.error("--all needs --out")
        return run_all(args)
    if not args.workload:
        parser.error("one of --workload, --all, --compare, --print-contract")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
