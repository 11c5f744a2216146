"""Shared benchmark fixtures and the end-of-run figure summary.

Each ``bench_figXX`` module regenerates one figure of the paper's
evaluation: it sweeps the experiment's configurations over 1-4 hosts on
the experiment's trace preset, records the series as a formatted table
(written to ``benchmarks/results/`` and echoed in the terminal summary),
and benchmarks a representative run so ``pytest-benchmark`` reports real
timings for the regeneration work.
"""

import pytest

from _figures import FIGURES, experiment_sweep


def pytest_terminal_summary(terminalreporter):
    if not FIGURES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("Reproduced paper figures (also in benchmarks/results/)")
    terminalreporter.write_line("=" * 70)
    for name in sorted(FIGURES):
        terminalreporter.write_line("")
        terminalreporter.write_line(FIGURES[name])


@pytest.fixture(scope="session")
def exp1_sweep():
    return experiment_sweep(1)


@pytest.fixture(scope="session")
def exp2_sweep():
    return experiment_sweep(2)


@pytest.fixture(scope="session")
def exp3_sweep():
    return experiment_sweep(3)
