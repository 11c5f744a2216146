"""The command-line interface."""

import pytest

from repro.cli import main

SCRIPT = """
DEFINE QUERY flows AS
SELECT tb, srcIP, destIP, COUNT(*) as cnt
FROM TCP GROUP BY time/60 as tb, srcIP, destIP;

DEFINE QUERY heavy AS
SELECT tb, srcIP, MAX(cnt) as m FROM flows GROUP BY tb, srcIP;
"""

#: Scripts the analyzer rejects -> the name the error line must carry.
BAD_SCRIPTS = {
    "unknown-column": (
        "DEFINE QUERY flows AS SELECT srcIP, bogus FROM TCP;", "bogus",
    ),
    "unknown-function": (
        "DEFINE QUERY flows AS SELECT srcIP, FOO(len) as f FROM TCP;", "FOO",
    ),
}


@pytest.fixture
def script_file(tmp_path):
    path = tmp_path / "queries.gsql"
    path.write_text(SCRIPT)
    return str(path)


class TestAnalyze:
    def test_analyze_recommends(self, script_file, capsys):
        assert main(["analyze", "--script", script_file, "--rate", "50000"]) == 0
        out = capsys.readouterr().out
        assert "recommended partitioning: {srcIP}" in out
        assert "query DAG:" in out

    def test_analyze_with_hardware(self, script_file, capsys):
        code = main(
            ["analyze", "--script", script_file, "--hardware", "destIP"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "destIP" in out

    def test_analyze_never_recommends_an_infeasible_partitioning(
        self, tmp_path, capsys
    ):
        """A splitter that sees only destIP can realize no partitioning
        compatible with GROUP BY time, srcIP: round-robin, said so."""
        path = tmp_path / "flows.gsql"
        path.write_text(
            "DEFINE QUERY flows AS SELECT time, srcIP, COUNT(*) as cnt "
            "FROM TCP GROUP BY time, srcIP;"
        )
        code = main(["analyze", "--script", str(path), "--hardware", "destIP"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no hardware-feasible partitioning exists" in out
        assert "recommended partitioning: {}" in out


class TestPlan:
    def test_plan_with_partitioning(self, script_file, capsys):
        code = main(
            [
                "plan",
                "--script",
                script_file,
                "--hosts",
                "3",
                "--partitioning",
                "srcIP",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== host 0 (aggregator) ==" in out
        assert "== host 2 ==" in out
        assert "pushed FULL" in out

    def test_plan_round_robin_default(self, script_file, capsys):
        assert main(["plan", "--script", script_file]) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out
        assert "SUB/SUPER" in out


class TestTrace:
    def test_trace_stats_only(self, capsys):
        code = main(["trace", "--duration", "3", "--rate", "200", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "flows" in out

    def test_trace_saved(self, tmp_path, capsys):
        out_path = str(tmp_path / "t.csv")
        code = main(
            ["trace", "--duration", "2", "--rate", "100", "--out", out_path]
        )
        assert code == 0
        from repro.traces import load_trace

        loaded = load_trace(out_path)
        assert loaded.packets

    def test_trace_preset(self, capsys):
        assert main(["trace", "--preset", "exp2", "--duration", "2"]) == 0
        # preset overrides duration; just verify it ran and printed stats
        assert "subnet groups" in capsys.readouterr().out


class TestFigures:
    def test_small_figure_sweep(self, capsys):
        code = main(
            ["figures", "--experiment", "1", "--hosts", "1,2", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CPU load on aggregator" in out
        assert "Naive" in out
        assert "Partitioned" in out
        assert "fell back" not in out

    def test_figures_say_why_runs_fell_back(self, capsys):
        """A parallel sweep that cannot fork a pool says so, per reason:
        one host has nothing to spread, one worker is no pool."""
        code = main(
            ["figures", "--experiment", "1", "--hosts", "1,2", "--seed", "3",
             "--execution", "parallel", "--workers", "1"]
        )
        assert code == 0
        notes = [
            line for line in capsys.readouterr().out.splitlines()
            if "fell back" in line
        ]
        assert len(notes) == 2
        assert all(line.startswith("execution inprocess for 3 of 6 runs")
                   for line in notes)
        assert "single host" in notes[1] and "workers=1" in notes[0]


class TestTimeline:
    def test_timeline_table(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "naive",
                "--hosts",
                "2",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution inprocess\n" in out
        assert "peak resident batch" in out
        assert "agg recv" in out
        assert "cpu[h1]" in out
        # Lineage pruning explains itself next to the host table.
        assert "source TCP: reads" in out and "pruned protocol" in out

    def test_timeline_shows_variants(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "naive",
                "--hosts",
                "2",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregation variants:" in out
        assert "sub" in out and "super" in out
        assert "sketch" not in out  # exact run: no sketch variant anywhere

    def test_timeline_approximate(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "naive",
                "--hosts",
                "2",
                "--seed",
                "3",
                "--approximate",
                "--epsilon",
                "0.1",
                "--delta",
                "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sketch_sub" in out
        assert "sketch_super" in out
        assert "ERROR 0.1 CONFIDENCE 0.9" in out
        assert "delivered approx_heavy:" in out

    def test_timeline_epsilon_requires_approximate(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "naive",
                "--hosts",
                "2",
                "--epsilon",
                "0.1",
            ]
        )
        assert code == 2
        assert "--approximate" in capsys.readouterr().err

    def test_timeline_approximate_rejects_bad_bounds(self, capsys):
        for flag, value in (("--epsilon", "1.5"), ("--delta", "0.0")):
            code = main(
                [
                    "timeline",
                    "--experiment",
                    "1",
                    "--config",
                    "naive",
                    "--hosts",
                    "2",
                    "--approximate",
                    flag,
                    value,
                ]
            )
            assert code == 2
            assert "must lie in (0, 1)" in capsys.readouterr().err

    def test_timeline_ambiguous_config(self, capsys):
        code = main(
            ["timeline", "--experiment", "3", "--config", "partitioned"]
        )
        assert code == 2
        assert "matches" in capsys.readouterr().err

    def test_timeline_rebalance(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "partitioned",
                "--hosts",
                "2",
                "--seed",
                "3",
                "--rebalance",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rebalancer:" in out

    def test_timeline_rebalance_threshold_implies_rebalance(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "partitioned",
                "--hosts",
                "2",
                "--rebalance-threshold",
                "1.1",
            ]
        )
        assert code == 0
        assert "rebalancer:" in capsys.readouterr().out

    def test_timeline_bad_rebalance_threshold(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "partitioned",
                "--rebalance-threshold",
                "0.5",
            ]
        )
        assert code == 2
        assert "max/mean" in capsys.readouterr().err

    def test_timeline_fault_outside_cluster(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "partitioned",
                "--hosts",
                "2",
                "--fault",
                "skip:7:1",
            ]
        )
        assert code == 2
        assert "valid indices" in capsys.readouterr().err

    def test_timeline_membership_fault_needs_rebalance(self, capsys):
        code = main(
            [
                "timeline",
                "--experiment",
                "1",
                "--config",
                "partitioned",
                "--hosts",
                "2",
                "--fault",
                "leave:1:2-3",
            ]
        )
        assert code == 2
        assert "rebalance" in capsys.readouterr().err

    def test_timeline_semantic_queue_policy(self, capsys):
        """The retired query-aware mode is refused by the parser: exit 2
        naming the three modes, before any trace is generated."""
        with pytest.raises(SystemExit) as refused:
            main(
                [
                    "timeline", "--experiment", "1", "--config", "partitioned",
                    "--hosts", "2", "--seed", "3", "--queue-limit", "600",
                    "--queue-policy", "semantic",
                ]
            )
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'semantic'" in captured.err
        for mode in ("block", "drop-newest", "drop-oldest"):
            assert f"'{mode}'" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        (
            (
                ["timeline", "--experiment", "1", "--config", "naive",
                 "--queue-limit", "0"],
                "queue capacity must be positive",
            ),
            (
                # The id is the retired semantic mode's, which the parser
                # now refuses; a lossy mode still needs a limit.
                ["timeline", "--experiment", "1", "--config", "naive",
                 "--queue-policy", "drop-oldest"],
                "--queue-policy drop-oldest requires --queue-limit",
            ),
            (
                ["timeline", "--experiment", "1", "--config", "naive",
                 "--workers", "0"],
                "workers must be >= 1",
            ),
            (
                ["figures", "--experiment", "1", "--workers", "0"],
                "workers must be >= 1",
            ),
        ),
        ids=("queue-limit-0", "semantic-without-limit", "timeline-workers-0",
             "figures-workers-0"),
    )
    def test_invalid_run_description_exits_2_with_one_line(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    def test_figures_streaming_matches_oneshot(self, capsys):
        args = ["figures", "--experiment", "1", "--hosts", "2", "--seed", "3"]
        assert main(args) == 0
        oneshot = capsys.readouterr().out
        assert main(args + ["--streaming"]) == 0
        assert capsys.readouterr().out == oneshot


class TestParserErrors:
    @pytest.mark.parametrize(
        "argv, message",
        (
            (["plan", "--hosts", "0"], "num_hosts must be positive"),
            (["plan", "--partitions", "0"], "partitions_per_host must be positive"),
            (["analyze", "--rate", "0"], "--rate must be positive"),
            (["trace", "--rate", "-5"], "rate must be positive"),
            (["trace", "--duration", "0"], "duration and rate must be positive"),
        ),
        ids=("plan-hosts-0", "plan-partitions-0", "analyze-rate-0",
             "trace-rate-negative", "trace-duration-0"),
    )
    def test_bad_sizes_exit_2_with_one_line(
        self, argv, message, script_file, capsys
    ):
        if argv[0] != "trace":
            argv = argv + ["--script", script_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("command", ("analyze", "plan"))
    @pytest.mark.parametrize("case", sorted(BAD_SCRIPTS))
    def test_bad_script_exits_2_with_one_line(
        self, command, case, tmp_path, capsys
    ):
        text, named = BAD_SCRIPTS[case]
        path = tmp_path / "bad.gsql"
        path.write_text(text)
        assert main([command, "--script", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and named in line

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["figures", "--experiment", "9"])
