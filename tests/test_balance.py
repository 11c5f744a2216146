"""Load-balance measurement for partitioning schemes."""

import math

import pytest

from repro.cluster import (
    BalanceReport,
    HashSplitter,
    RoundRobinSplitter,
    compare_balance,
    partition_balance,
)
from repro.distopt import Placement
from repro.partitioning import PartitioningSet
from tests.split_reference import reference_assign


class TestBalanceReport:
    def test_perfect_balance(self):
        report = BalanceReport([10, 10, 10, 10])
        assert report.max_over_mean == 1.0
        assert report.coefficient_of_variation == 0.0

    def test_skewed(self):
        report = BalanceReport([30, 10, 0, 0])
        assert report.total == 40
        assert report.max_over_mean == 3.0
        assert report.coefficient_of_variation > 1.0

    def test_empty(self):
        report = BalanceReport([])
        assert report.max_over_mean == 1.0
        assert report.mean == 0.0

    def test_describe(self):
        text = BalanceReport([1, 2], [3]).describe()
        assert "max/mean" in text
        assert "hosts" in text

    def test_host_ratio_without_host_totals_falls_back(self):
        """``host_counts is None`` means "no host totals", and the ratio
        must fall back to the partition-level one — including when that
        ratio is 0.0-adjacent or otherwise falsy."""
        report = BalanceReport([10, 10])
        assert report.host_counts is None
        assert report.host_max_over_mean == report.max_over_mean == 1.0

    def test_empty_host_totals_are_rejected(self):
        """``[]`` used to be treated like ``None`` by a falsy check and
        silently read as "perfectly balanced"."""
        with pytest.raises(ValueError, match="host_counts"):
            BalanceReport([1, 2], [])

    def test_idle_hosts_are_nan_not_balanced(self):
        """An all-zero host load has no meaningful max/mean; reporting
        1.0 made an idle cluster look perfectly balanced."""
        report = BalanceReport([0, 0], [0, 0])
        assert math.isnan(report.host_max_over_mean)

    def test_hot_host_ratio(self):
        report = BalanceReport([10, 10, 10, 10], [30, 10])
        assert report.host_max_over_mean == 1.5


def _reference_counts(splitter, rows):
    counts = [0] * splitter.num_partitions
    for index in reference_assign(splitter, rows):
        counts[index] += 1
    return counts


class TestPartitionBalance:
    def test_round_robin_is_perfect(self, small_trace):
        report = partition_balance(RoundRobinSplitter(8), small_trace.packets)
        assert report.max_over_mean < 1.001

    def test_flow_key_hash_is_reasonable(self, small_trace):
        splitter = HashSplitter(
            8, PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")
        )
        report = partition_balance(splitter, small_trace.packets)
        assert report.max_over_mean < 2.5

    def test_coarse_key_is_worse_than_fine_key(self, small_trace):
        """Fewer distinct key values -> worse balance (the reason the
        paper prefers the largest compatible set)."""
        fine = partition_balance(
            HashSplitter(
                8, PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")
            ),
            small_trace.packets,
        )
        coarse = partition_balance(
            HashSplitter(8, PartitioningSet.of("destPort")),
            small_trace.packets,
        )
        assert coarse.max_over_mean > fine.max_over_mean

    def test_temporal_key_is_degenerate(self, small_trace):
        """§3.5.1's warning: correlated-in-time tuples share temporal
        values — a coarse temporal key concentrates whole epochs on
        single partitions."""
        report = partition_balance(
            HashSplitter(8, PartitioningSet.of("time / 4")),
            small_trace.packets,
        )
        assert report.coefficient_of_variation > 0.5

    def test_per_host_aggregation(self, small_trace):
        placement = Placement(num_hosts=4, partitions_per_host=2)
        report = partition_balance(
            RoundRobinSplitter(8), small_trace.packets, placement
        )
        assert report.host_counts is not None
        assert len(report.host_counts) == 4
        assert sum(report.host_counts) == len(small_trace.packets)

    def test_placement_mismatch_rejected(self, small_trace):
        with pytest.raises(ValueError):
            partition_balance(
                RoundRobinSplitter(6),
                small_trace.packets,
                Placement(num_hosts=4, partitions_per_host=2),
            )

    def test_columnar_batch_matches_rows(self, small_trace):
        """A ColumnBatch and the row list it holds count alike, and like
        the per-row reference assignment."""
        splitter = HashSplitter(
            8, PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")
        )
        from_rows = partition_balance(splitter, small_trace.packets)
        from_batch = partition_balance(splitter, small_trace.column_batch())
        assert from_batch.partition_counts == from_rows.partition_counts
        assert from_rows.partition_counts == _reference_counts(
            splitter, small_trace.packets
        )

    def test_columnar_round_robin_matches_rows(self, small_trace):
        from_rows = partition_balance(RoundRobinSplitter(8),
                                      small_trace.packets)
        from_batch = partition_balance(RoundRobinSplitter(8),
                                       small_trace.column_batch())
        assert from_batch.partition_counts == from_rows.partition_counts

    def test_columnar_falls_back_on_unsupported_expression(self, small_trace):
        """A float-keyed splitter (the column hash once had no float
        path) reports the balance of the per-row reference split."""
        for spec in ("srcIP * 1.5", "MAX2(len, 100.0)", "time / 4.0"):
            splitter = HashSplitter(8, PartitioningSet.of(spec))
            report = partition_balance(splitter, small_trace.column_batch())
            assert report.partition_counts == _reference_counts(
                splitter, small_trace.packets
            ), spec

    def test_compare_balance(self, small_trace):
        reports = compare_balance(
            {
                "rr": RoundRobinSplitter(4),
                "srcIP": HashSplitter(4, PartitioningSet.of("srcIP")),
            },
            small_trace.packets,
        )
        assert set(reports) == {"rr", "srcIP"}
