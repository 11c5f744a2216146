"""Partitioning sets and the hash-based stream partitioner (paper §3.3).

A partitioning set is a tuple of scalar expressions over source-stream
attributes, e.g. ``(srcIP & 0xFFF0, destIP)``.  A tuple falls into
partition ``i`` when ``i*R/M <= H(A) < (i+1)*R/M`` for a hash function
``H`` with range ``R`` and ``M`` desired partitions — exactly the paper's
bucketed-hash scheme.

The hash folds the key's FNV-1a state over the canonical byte encoding
of :mod:`repro.engine.keyhash` (the one the Count-Min cells start from)
to 32 bits, so simulations are reproducible across processes regardless
of ``PYTHONHASHSEED``, and keys that compare equal hash alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..engine.keyhash import by_encoding, fold_keys
from ..expr.expressions import ScalarExpr, parse_scalar
from ..expr.vectorizer import vectorize_key

HASH_RANGE = 1 << 32


def fnv1a_hash_arrays(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Deterministic 32-bit hash of every row's key tuple, one array per
    key element: its :func:`~repro.engine.keyhash.fold_keys` state folded
    to 32 bits, so keys equal under ``==`` share a partition.  An element
    that is not a number (a string, ``None``) raises ``ValueError``."""
    if not keys:
        raise ValueError("need at least one key array")
    for key in keys:
        if key.dtype.kind not in "biuf":
            for element in by_encoding(key)[-1][1].tolist():
                if not isinstance(element, float):
                    raise ValueError(f"cannot hash key element {element!r}")
    value = fold_keys(keys)
    value ^= value >> np.uint64(32)
    value &= np.uint64(0xFFFFFFFF)
    return value


@dataclass(frozen=True)
class PartitioningSet:
    """An immutable tuple of partitioning expressions."""

    exprs: Tuple[ScalarExpr, ...]

    @classmethod
    def of(cls, *specs: Union[str, ScalarExpr]) -> "PartitioningSet":
        """Build from expression objects and/or GSQL text specs.

        >>> PartitioningSet.of("srcIP & 0xFFF0", "destIP")
        """
        exprs = tuple(
            spec if isinstance(spec, ScalarExpr) else parse_scalar(spec)
            for spec in specs
        )
        return cls(exprs)

    @classmethod
    def empty(cls) -> "PartitioningSet":
        """The empty set — "no compatible partitioning exists" (§4.1)."""
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.exprs

    def __len__(self) -> int:
        return len(self.exprs)

    def __iter__(self) -> Iterator[ScalarExpr]:
        return iter(self.exprs)

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return "{" + ", ".join(str(expr) for expr in self.exprs) + "}"

    def attrs(self) -> frozenset:
        """All base attributes any member expression reads."""
        result = frozenset()
        for expr in self.exprs:
            result |= expr.attrs()
        return result

    def vector_partitioner(
        self, num_partitions: int
    ) -> Callable[[Mapping[str, np.ndarray], int], np.ndarray]:
        """Compile ``(columns, length) -> partition index array`` for
        ``num_partitions`` buckets.

        Evaluates the member expressions with the vectorizer and hashes
        every key tuple at once (:func:`fnv1a_hash_arrays`).  Partition
        ``i`` receives the keys with ``H(A)`` in ``[i*R/M, (i+1)*R/M)``.
        """
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.is_empty:
            raise ValueError("the empty partitioning set has no key function")
        keys_of = vectorize_key(self.exprs)
        bucket = HASH_RANGE // num_partitions + (HASH_RANGE % num_partitions > 0)

        def partition(columns: Mapping[str, np.ndarray], length: int) -> np.ndarray:
            keys: List[np.ndarray] = keys_of(columns, length)
            hashed = fnv1a_hash_arrays(keys)
            indices = (hashed // np.uint64(bucket)).astype(np.int64)
            return np.minimum(indices, num_partitions - 1)

        return partition


def subset_sets(ps: PartitioningSet) -> Iterable[PartitioningSet]:
    """All non-empty subsets of ``ps`` (every subset of a compatible set is
    compatible, §3.5.2); exponential, intended for small sets in tests."""
    exprs = ps.exprs
    count = len(exprs)
    for bits in range(1, 1 << count):
        yield PartitioningSet(
            tuple(exprs[i] for i in range(count) if bits & (1 << i))
        )


def dedupe_exprs(exprs: Sequence[ScalarExpr]) -> Tuple[ScalarExpr, ...]:
    """Drop structural duplicates, preserving order."""
    seen = set()
    result = []
    for expr in exprs:
        if expr not in seen:
            seen.add(expr)
            result.append(expr)
    return tuple(result)
