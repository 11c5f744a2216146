"""Ablation A3 — load balance of candidate partitioning keys.

The paper's hash scheme assumes the partitioning key spreads tuples
evenly (§3.3) and §3.5.1 argues temporal attributes spread them terribly.
This ablation measures peak-to-average tuple ratios for the candidate
keys on the experiment-1 trace.
"""

from _figures import record_figure

from repro.cluster import HashSplitter, RoundRobinSplitter, partition_balance
from repro.partitioning import PartitioningSet

KEYS = [
    ("round-robin", None),
    ("4-tuple", PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")),
    ("(srcIP, destIP)", PartitioningSet.of("srcIP", "destIP")),
    ("srcIP", PartitioningSet.of("srcIP")),
    ("srcIP & 0xFFF0", PartitioningSet.of("srcIP & 0xFFFFFFF0")),
    ("time/4 (temporal!)", PartitioningSet.of("time / 4")),
]


def test_partitioning_key_balance(benchmark, exp1_sweep):
    trace, _, _, _ = exp1_sweep

    def measure():
        rows = []
        for name, ps in KEYS:
            if ps is None:
                splitter = RoundRobinSplitter(8)
            else:
                splitter = HashSplitter(8, ps)
            report = partition_balance(splitter, trace.column_batch())
            rows.append((name, report))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = ["Ablation A3: tuple balance across 8 partitions (max/mean, cv)"]
    lines.append("partitioning key".ljust(26) + "max/mean".rjust(10) + "cv".rjust(8))
    for name, report in rows:
        lines.append(
            name.ljust(26)
            + f"{report.max_over_mean:10.2f}"
            + f"{report.coefficient_of_variation:8.2f}"
        )
    record_figure("ablation_balance", "\n".join(lines))

    reports = dict(rows)
    # Round-robin is (by construction) near-perfect.
    assert reports["round-robin"].max_over_mean < 1.01
    # Flow-key hashing stays within a factor ~2.5 of perfect.
    assert reports["4-tuple"].max_over_mean < 2.5
    # The temporal key is dramatically worse than the 4-tuple (§3.5.1).
    assert (
        reports["time/4 (temporal!)"].coefficient_of_variation
        > 2 * reports["4-tuple"].coefficient_of_variation
    )
