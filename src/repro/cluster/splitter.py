"""The splitter "hardware": distributes raw stream tuples to partitions.

Models the specialized monitoring NICs of the paper (§1, §3.2): the
splitter runs at line speed in hardware, so its work is *not* charged to
any host's CPU.  Two concrete splitters:

* :class:`RoundRobinSplitter` — the query-independent baseline partitioning
  used by existing DSMSs (the paper's Naive/Optimized configurations);
* :class:`HashSplitter` — hash partitioning on a
  :class:`~repro.partitioning.partition_set.PartitioningSet`, the paper's
  query-aware scheme.

Both split a :class:`~repro.engine.columnar.ColumnBatch` without a row
loop, into read-only partition batches.  Round-robin needs no assignment
at all: partition ``p`` is every ``n``-th row from ``(p - offset) mod n``,
so its partitions are strided views of the input batch, and the host
``MERGE`` that follows is the only copy.  Hash partitions are located by
content, so :meth:`HashSplitter.split_columns` assigns every row and
gathers each column once, in partition order (:func:`gather_partitions`,
a counting sort).  Its hash,
:func:`~repro.partitioning.partition_set.fnv1a_hash_arrays`, gives keys
that compare equal (``100`` and ``100.0`` too) one partition, so every
row of a group reaches the same one.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..engine.columnar import ColumnBatch
from ..partitioning.partition_set import PartitioningSet


class Splitter:
    """Base interface: assign each tuple a partition index."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def split_columns(
        self, batch: ColumnBatch, offset: int = 0
    ) -> List[ColumnBatch]:
        """Partition ``batch`` into ``num_partitions`` batches, keeping
        within-partition order.

        ``offset`` is the number of tuples of the same stream already
        split in earlier calls — it lets stateful splitters (round-robin)
        continue their cursor when a trace arrives epoch by epoch, so the
        sliced assignment matches one whole-trace split exactly.
        Content-hash splitters ignore it.  The returned batches are
        *read-only, non-overlapping views*: writing into one raises
        ``ValueError``.
        """
        raise NotImplementedError

    def assign_indices(self, batch: ColumnBatch, offset: int = 0) -> np.ndarray:
        """Partition index of every row of a columnar batch, at once."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class RoundRobinSplitter(Splitter):
    """Query-independent even spreading, one tuple at a time."""

    def split_columns(
        self, batch: ColumnBatch, offset: int = 0
    ) -> List[ColumnBatch]:
        """Partition ``p`` is rows ``(p - offset) mod n``, ``+ n``, ``+ 2n``,
        ...: a strided view of ``batch``, so nothing is assigned, sorted or
        copied.  The views alias ``batch``'s arrays."""
        count = self.num_partitions
        frozen = batch.read_only()
        return [
            frozen.slice((partition - offset) % count, len(batch), count)
            for partition in range(count)
        ]

    def assign_indices(self, batch: ColumnBatch, offset: int = 0) -> np.ndarray:
        indices = np.arange(offset, offset + len(batch), dtype=np.int64)
        return indices % self.num_partitions

    def describe(self) -> str:
        return f"round-robin over {self.num_partitions} partitions"


class HashSplitter(Splitter):
    """Hash partitioning on a partitioning set (paper §3.3)."""

    def __init__(self, num_partitions: int, ps: PartitioningSet):
        super().__init__(num_partitions)
        if ps.is_empty:
            raise ValueError("hash splitter needs a non-empty partitioning set")
        self.partitioning_set = ps
        self._partition = ps.vector_partitioner(num_partitions)

    def assign_indices(self, batch: ColumnBatch, offset: int = 0) -> np.ndarray:
        # Content hashing is position-independent; the offset is ignored.
        return self._partition(batch.columns, len(batch))

    def split_columns(
        self, batch: ColumnBatch, offset: int = 0
    ) -> List[ColumnBatch]:
        """Assigns every row by content, then :func:`gather_partitions`."""
        return gather_partitions(
            batch, self.assign_indices(batch, offset), self.num_partitions
        )

    def describe(self) -> str:
        return f"hash on {self.partitioning_set} over {self.num_partitions} partitions"


def gather_partitions(
    batch: ColumnBatch, ids: np.ndarray, num_partitions: int
) -> List[ColumnBatch]:
    """Split ``batch`` by per-row partition ``ids``, touching every row once.

    One stable sort of the ids (a counting sort: they are narrowed to the
    smallest unsigned dtype, and NumPy radix-sorts 8- and 16-bit keys)
    orders the rows by partition, keeping input order within one; each
    column is gathered once with that permutation, and the partitions are
    handed out as contiguous, read-only slices of the gathered columns.
    """
    ids = ids.astype(np.min_scalar_type(num_partitions - 1), copy=False)
    gathered = batch.select(np.argsort(ids, kind="stable")).read_only()
    counts = np.bincount(ids, minlength=num_partitions)
    bounds = [0, *np.cumsum(counts).tolist()]
    # A skewed partitioning leaves most partitions empty: they share one
    # empty slice.
    empty = gathered.slice(0, 0)
    return [
        gathered.slice(start, stop) if stop > start else empty
        for start, stop in zip(bounds, bounds[1:])
    ]
