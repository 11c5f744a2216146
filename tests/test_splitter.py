"""Splitter hardware models."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import partition_balance
from repro.cluster.splitter import HashSplitter, RoundRobinSplitter
from repro.engine.columnar import ColumnBatch
from repro.partitioning import PartitioningSet
from tests.split_reference import reference_assign, reference_split


def rows(n):
    return [{"srcIP": i % 7, "destIP": i % 3, "len": i} for i in range(n)]


def batch_of(n):
    return ColumnBatch.from_rows(rows(n))


class TestRoundRobin:
    def test_even_spread(self):
        splitter = RoundRobinSplitter(4)
        batches = splitter.split_columns(batch_of(100))
        assert [len(b) for b in batches] == [25, 25, 25, 25]

    def test_cyclic_assignment(self):
        splitter = RoundRobinSplitter(3)
        indices = splitter.assign_indices(batch_of(6))
        assert indices.tolist() == [0, 1, 2, 0, 1, 2]

    def test_preserves_all_tuples(self):
        splitter = RoundRobinSplitter(5)
        batches = splitter.split_columns(batch_of(17))
        assert sum(len(b) for b in batches) == 17

    def test_describe(self):
        assert "round-robin" in RoundRobinSplitter(4).describe()

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            RoundRobinSplitter(0)

    def test_offset_continues_the_cursor(self):
        """Splitting a stream chunk by chunk with running offsets must
        reproduce the per-row cursor over the whole stream — the
        invariant epoch-sliced streaming relies on."""
        splitter = RoundRobinSplitter(3)
        data = batch_of(20)
        chunked = [[] for _ in range(3)]
        offset = 0
        for size in (7, 0, 5, 8):
            chunk = data.slice(offset, offset + size)
            for partition, part in enumerate(splitter.split_columns(chunk, offset)):
                chunked[partition].extend(part.to_rows())
            offset += size
        assert chunked == reference_split(splitter, rows(20))

    def test_offset_starts_mid_cycle(self):
        splitter = RoundRobinSplitter(3)
        indices = splitter.assign_indices(batch_of(4), offset=4)
        assert indices.tolist() == [1, 2, 0, 1]

    def test_vectorized_offset_matches_rows(self):
        splitter = RoundRobinSplitter(4)
        indices = splitter.assign_indices(batch_of(13), offset=6)
        assert indices.tolist() == reference_assign(splitter, rows(13), offset=6)
        assert indices.dtype == np.int64


class TestHashSplitter:
    def test_key_locality(self):
        splitter = HashSplitter(4, PartitioningSet.of("srcIP"))
        batches = splitter.split_columns(batch_of(100))
        # every batch must contain only whole srcIP groups
        seen = {}
        for index, batch in enumerate(batches):
            for key in batch.column("srcIP").tolist():
                assert seen.setdefault(key, index) == index

    def test_preserves_all_tuples(self):
        splitter = HashSplitter(8, PartitioningSet.of("srcIP", "destIP"))
        batches = splitter.split_columns(batch_of(123))
        assert sum(len(b) for b in batches) == 123

    def test_empty_ps_rejected(self):
        with pytest.raises(ValueError):
            HashSplitter(4, PartitioningSet.empty())

    def test_describe_mentions_expressions(self):
        splitter = HashSplitter(4, PartitioningSet.of("srcIP & 0xFFF0"))
        assert "0xfff0" in splitter.describe()

    def test_histogram(self):
        """The balance report counts what the per-row reference assigns."""
        splitter = HashSplitter(4, PartitioningSet.of("len"))
        counts = partition_balance(splitter, rows(50)).partition_counts
        expected = np.bincount(reference_assign(splitter, rows(50)), minlength=4)
        assert counts == expected.tolist()
        assert sum(counts) == 50

    def test_offset_is_ignored(self):
        # Content hashing is position-independent: any offset yields the
        # same assignment, so epoch slicing cannot perturb it.
        splitter = HashSplitter(4, PartitioningSet.of("srcIP"))
        data = batch_of(30)
        assert [part.to_rows() for part in splitter.split_columns(data, 11)] == [
            part.to_rows() for part in splitter.split_columns(data)
        ]

    def test_reasonable_balance_on_trace(self, small_trace):
        """The paper's premise: hashing on flow keys spreads load well."""
        splitter = HashSplitter(
            8, PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")
        )
        counts = partition_balance(splitter, small_trace.column_batch()).partition_counts
        expected = sum(counts) / 8
        assert max(counts) < 2.5 * expected


def _mixed_batch(keys):
    """A batch with a plain, a composite (tuple-of-arrays) and an
    object-dtype column; ``pos`` makes every row distinct, so comparing
    partitions as row lists also compares within-partition order."""
    count = len(keys)
    return ColumnBatch(
        {
            "srcIP": np.array([src for src, _ in keys], dtype=np.int64),
            "destIP": np.array([dst for _, dst in keys], dtype=np.int64),
            "pos": np.arange(count, dtype=np.int64),
            "state": (np.arange(count) * 2.5, np.arange(count, dtype=np.int64) % 3),
            "note": np.array([None if i % 4 == 0 else f"n{i}" for i in range(count)],
                             dtype=object),
        },
        count,
    )


def _splitter(kind, num_partitions):
    if kind == "round-robin":
        return RoundRobinSplitter(num_partitions)
    return HashSplitter(num_partitions, PartitioningSet.of(*kind))


SPLITTER_KINDS = ("round-robin", ("srcIP",), ("srcIP & 0xFFF0", "destIP"))
KEYS = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 40)), max_size=60
)


class TestSplitColumns:
    """The one-pass columnar split is the per-row reference split,
    partition by partition and row by row."""

    @given(
        keys=KEYS,
        kind=st.sampled_from(SPLITTER_KINDS),
        num_partitions=st.sampled_from((1, 2, 8, 300)),
        offset=st.integers(0, 1000),
    )
    def test_equals_row_split_in_order(self, keys, kind, num_partitions, offset):
        splitter = _splitter(kind, num_partitions)
        batch = _mixed_batch(keys)
        by_columns = splitter.split_columns(batch, offset=offset)
        by_rows = reference_split(splitter, batch.to_rows(), offset)
        assert len(by_columns) == num_partitions
        assert [len(part) for part in by_columns] == [len(part) for part in by_rows]
        assert [part.to_rows() for part in by_columns] == by_rows
        for part in by_columns:  # empty partitions keep their schema
            assert part.names() == batch.names()

    @pytest.mark.parametrize("kind", SPLITTER_KINDS, ids=str)
    def test_partitions_do_not_share_memory(self, kind):
        keys = [(0x0A000000 + i % 17, i % 5) for i in range(200)]
        parts = _splitter(kind, 8).split_columns(_mixed_batch(keys))
        assert sum(len(part) for part in parts) == 200
        for left, right in itertools.combinations(parts, 2):
            assert not np.shares_memory(left.column("pos"), right.column("pos"))
            assert not np.shares_memory(
                left.column("state")[0], right.column("state")[0]
            )

    def test_chunked_round_robin_matches_whole_split(self):
        splitter = RoundRobinSplitter(3)
        batch = _mixed_batch([(i, i) for i in range(20)])
        whole = [part.to_rows() for part in splitter.split_columns(batch)]
        chunked = [[] for _ in range(3)]
        offset = 0
        for size in (7, 0, 5, 8):
            chunk = batch.slice(offset, offset + size)
            for index, part in enumerate(splitter.split_columns(chunk, offset)):
                chunked[index].extend(part.to_rows())
            offset += size
        assert chunked == whole

    @pytest.mark.parametrize("kind", SPLITTER_KINDS, ids=str)
    def test_partitions_are_read_only(self, kind):
        batch = _mixed_batch([(i % 7, i % 3) for i in range(40)])
        for part in _splitter(kind, 4).split_columns(batch):
            if not len(part):
                continue
            with pytest.raises(ValueError):
                part.column("pos")[0] = -1
            with pytest.raises(ValueError):
                part.column("state")[1][0] = -1
        # The flag is set on views: the caller's own arrays stay writeable.
        assert batch.column("pos").flags.writeable
        assert batch.column("state")[0].flags.writeable

    def test_round_robin_partitions_are_views_of_the_input(self):
        batch = _mixed_batch([(i, i % 5) for i in range(50)])
        parts = RoundRobinSplitter(8).split_columns(batch, offset=3)
        assert all(len(part) for part in parts)
        for part in parts:
            for name in batch.names():
                column, source = part.column(name), batch.column(name)
                if isinstance(column, tuple):
                    assert all(map(np.shares_memory, column, source))
                else:
                    assert np.shares_memory(column, source)

    @pytest.mark.parametrize("kind", SPLITTER_KINDS, ids=str)
    def test_more_partitions_than_rows(self, kind):
        splitter = _splitter(kind, 300)
        batch = _mixed_batch([(i * 977, i % 4) for i in range(17)])
        parts = splitter.split_columns(batch, offset=290)
        assert len(parts) == 300
        assert sum(1 for part in parts if len(part)) <= 17
        assert [part.to_rows() for part in parts] == reference_split(
            splitter, batch.to_rows(), offset=290
        )
        for part in parts:
            assert part.names() == batch.names()
