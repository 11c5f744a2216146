"""Self-tests of the end-to-end benchmark.

Outside tier-1 ``testpaths``; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They smoke every workload at ``scale=0.05`` and prove that each output
check can go red.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import harness
import run
from metrics import END_TO_END, EXACT_PER_LAYER, PER_LAYER, contract
from workloads import BY_NAME, WORKLOADS

SCALE = 0.05
SECONDS = 0.2
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One small full (untraced + traced) measurement of every workload."""
    results = tmp_path_factory.mktemp("results")
    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "RESULTS_DIR", str(results))
    started = time.perf_counter()
    reports = {
        workload.name: harness.measure(workload, 7, SECONDS, scale=SCALE)
        for workload in WORKLOADS
    }
    elapsed = time.perf_counter() - started
    patch.undo()
    return reports, elapsed, results


def test_smoke_runs_all_six_quickly(smoke):
    reports, elapsed, _ = smoke
    assert len(reports) == 6
    assert elapsed < 30, f"smoke took {elapsed:.1f}s"
    for name, report in reports.items():
        assert report["correct"], (name, report["problems"])
        assert report["failed"] == 0 and report["attempted"] >= 2 * harness.MIN_REPS


def test_every_metric_present_and_well_named(smoke):
    reports, _, _ = smoke
    for name, report in reports.items():
        assert list(report["end_to_end"]) == [m.name for m in END_TO_END], name
        assert list(report["per_layer"]) == [n for n, _, _ in PER_LAYER], name
        for metric, value in {**report["end_to_end"], **report["per_layer"]}.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
            assert isinstance(value, (int, float)), (name, metric, value)
        assert all(value != 0 for value in report["end_to_end"].values()), name
        load = report["load"]
        assert load["rows"] > 0 and load["epochs"] > 0 and load["groups"] > 0
        assert load["partition_skew"] >= 1.0
        assert sum(load["delivered_rows"].values()) > 0
        assert report["why"] == BY_NAME[name].why


def test_each_workload_engages_the_layers_it_names(smoke):
    reports, _, _ = smoke
    layers = {name: report["per_layer"] for name, report in reports.items()}
    assert layers["suspicious_hash"]["engine.agg_full_ms"] > 0
    assert layers["jitter_join"]["engine.join_rows_out"] > 0
    assert layers["complex_rr_oneshot"]["engine.agg_sub_rows_in"] > 0
    assert layers["complex_rr_oneshot"]["engine.agg_super_rows_in"] > 0
    assert layers["complex_rr_oneshot"]["engine.streaming.peak_batch_rows"] == 0
    assert layers["complex_parallel"]["runtime.parallel.speedup"] > 0
    assert layers["complex_parallel"]["runtime.parallel.pool_start_ms"] > 0
    assert layers["sliding_sketch"]["engine.sketch_sub_rows_in"] > 0
    assert layers["sliding_sketch"]["engine.sketch_super_rows_out"] > 0
    assert layers["sliding_sketch"]["engine.agg_super_rows_out"] > 0
    assert layers["qset96_deploy"]["gsql.queries"] == 96
    for name in layers:
        if name != "complex_parallel":
            assert layers[name]["runtime.parallel.wall_ms"] == 0


def test_same_seed_repeats_exactly_and_other_seed_differs(smoke):
    reports, _, _ = smoke
    for workload in WORKLOADS:
        first = reports[workload.name]
        again = harness.measure(workload, 7, SECONDS, traced=False, scale=SCALE)
        other = harness.measure(workload, 8, SECONDS, traced=False, scale=SCALE)
        assert again["digests"] == first["digests"], workload.name
        assert other["digests"] != first["digests"], workload.name
        for metric in END_TO_END:
            if metric.exact:
                assert (
                    again["end_to_end"][metric.name]
                    == first["end_to_end"][metric.name]
                ), (workload.name, metric.name)
    # The exact per-layer counts need a traced pass: one workload suffices.
    workload = BY_NAME["jitter_join"]
    again = harness.measure(workload, 7, SECONDS, untraced=False, scale=SCALE)
    for name in EXACT_PER_LAYER:
        assert again["per_layer"][name] == reports[workload.name]["per_layer"][name]


def _doctor_row(result) -> None:
    name = sorted(result.outputs)[0]
    row = result.outputs[name][0]
    column = sorted(row)[-1]
    row[column] += 1


def _empty_approximate(result) -> None:
    result.outputs["approx_heavy"].clear()


def test_a_doctored_delivered_row_fails_the_run():
    report = harness.measure(
        BY_NAME["suspicious_hash"], 7, SECONDS, traced=False, scale=SCALE,
        doctor=_doctor_row,
    )
    assert not report["correct"]
    assert report["failed"] == report["attempted"] >= 1
    assert any("!= reference" in problem for problem in report["problems"])


def test_an_emptied_approximate_result_fails_the_run():
    report = harness.measure(
        BY_NAME["sliding_sketch"], 7, SECONDS, traced=False, scale=SCALE,
        doctor=_empty_approximate,
    )
    assert not report["correct"] and report["failed"] >= 1
    assert any("emitted no rows" in problem for problem in report["problems"])


def test_a_forced_parallel_fallback_fails_the_run():
    report = harness.measure(
        BY_NAME["complex_parallel"], 7, SECONDS, traced=False, scale=SCALE,
        workers=1,
    )
    assert not report["correct"] and report["failed"] >= 1
    assert any("ran inprocess" in problem for problem in report["problems"])


def test_approximate_check_flags_underestimates_and_wide_errors():
    exact = [{"tb": 0, "srcIP": 1, "destIP": 2, "cnt": 100, "bytes": 1000}]
    good = [{"tb": 0, "srcIP": 1, "destIP": 2, "cnt": 104, "bytes": 1000}]
    low = [{"tb": 0, "srcIP": 1, "destIP": 2, "cnt": 99, "bytes": 1000}]
    wide = [{"tb": 0, "srcIP": 1, "destIP": 2, "cnt": 200, "bytes": 9000}]
    assert harness.approximate_errors(exact, good) == (0, 1.0)
    assert harness.approximate_errors(exact, low)[0] == 1
    assert harness.approximate_errors(exact, wide)[1] == 0.0
    assert harness.approximate_errors(exact, [])[1] == 0.0


def test_digest_is_order_independent_and_content_sensitive():
    rows = [{"a": 1, "b": 2}, {"a": 3, "b": None}]
    assert harness.digest(rows) == harness.digest(rows[::-1])
    assert harness.digest(rows) != harness.digest([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    assert harness.digest([])[0] == 0


def test_span_tree_is_well_formed(smoke):
    _, _, results = smoke
    for workload in WORKLOADS:
        with open(results / f"trace_{workload.name}.json") as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans and trace["load"]["rows"] > 0
        covered = [0.0] * len(spans)
        for span in spans:
            assert span["end"] >= span["start"]
            parent = span["parent"]
            if parent < 0:
                assert span["name"] == "rep"
                continue
            assert spans[parent]["rep"] == span["rep"]
            assert spans[parent]["start"] <= span["start"]
            assert span["end"] <= spans[parent]["end"]
            covered[parent] += span["end"] - span["start"]
        for span, child_time in zip(spans, covered):
            self_time = span["end"] - span["start"] - child_time
            assert self_time >= -1e-6, (workload.name, span)


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == contract(WORKLOADS)


def test_compare_accepts_equal_sets_and_names_a_disagreement(smoke, tmp_path, capsys):
    reports, _, _ = smoke
    first = tmp_path / "A.json"
    second = tmp_path / "B.json"
    first.write_text(json.dumps({"workloads": reports}))
    second.write_text(json.dumps({"workloads": reports}))
    assert run.compare(str(first), str(second)) == 0
    doctored = json.loads(json.dumps(reports))
    doctored["jitter_join"]["end_to_end"]["rows_per_s"] *= 0.5
    doctored["qset96_deploy"]["end_to_end"]["agg_cpu_pct"] += 1e-9
    second.write_text(json.dumps({"workloads": doctored}))
    capsys.readouterr()
    assert run.compare(str(first), str(second)) == 1
    printed = capsys.readouterr().out
    assert "jitter_join rows_per_s" in printed
    assert "qset96_deploy agg_cpu_pct" in printed


def _session_members(session: int) -> list:
    """Command lines of the live processes whose session id is ``session``."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/cmdline") as handle:
                command = handle.read().replace("\0", " ")
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(f"{pid} [{fields[0]}] {command}")
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_parallel_run_leaves_no_process_behind():
    """Forked workers and the shared-memory resource tracker must all have
    ended by the time the command returns."""
    child = subprocess.Popen(
        [sys.executable, os.path.join(REPO_ROOT, "benchmarks", "e2e", "run.py"),
         "--workload", "complex_parallel", "--seed", "7", "--seconds", str(SECONDS),
         "--scale", str(SCALE), "--trace", "0"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    printed, errors = child.communicate(timeout=120)
    # The child leads a new session, so its pid is the session id of every
    # process it started; the child itself is reaped by now.
    survivors = _session_members(child.pid)
    assert child.returncode == 0, errors
    assert json.loads(printed.splitlines()[-1])["correct"]
    assert survivors == []
