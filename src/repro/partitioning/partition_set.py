"""Partitioning sets and the hash-based stream partitioner (paper §3.3).

A partitioning set is a tuple of scalar expressions over source-stream
attributes, e.g. ``(srcIP & 0xFFF0, destIP)``.  A tuple falls into
partition ``i`` when ``i*R/M <= H(A) < (i+1)*R/M`` for a hash function
``H`` with range ``R`` and ``M`` desired partitions — exactly the paper's
bucketed-hash scheme.

The hash is a deterministic FNV-1a over a canonical byte encoding of the
key tuple, so simulations are reproducible across processes regardless of
``PYTHONHASHSEED``, and keys that compare equal hash alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..engine.sketches import by_encoding, fold_repr_bytes
from ..expr.expressions import ScalarExpr, parse_scalar
from ..expr.vectorizer import vectorize_key

HASH_RANGE = 1 << 32

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: Bytes one integer key element contributes to the hash.
_KEY_BYTES = 16


def _significant_bytes(lowest: int, highest: int) -> int:
    """Leading bytes of the little-endian two's-complement encoding after
    which every value in ``[lowest, highest]`` only repeats its sign byte
    (``0x00``, or ``0xFF`` for a negative value)."""
    if lowest >= 0:
        return (highest.bit_length() + 7) // 8
    # One more bit than the magnitude, for the sign.
    return max(~lowest, highest).bit_length() // 8 + 1


def fnv1a_hash_arrays(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Deterministic 32-bit hash of every row's key tuple, one array per
    key element: FNV-1a over a canonical byte encoding, folded to 32 bits.

    Keys equal under Python ``==`` hash equal, because ``==`` is how the
    group-by and the join match keys: rows of one group that hashed apart
    would be split across partitions.  So an integer (of an integer or
    bool column, or an integral float in the int64/uint64 range) stands
    for its 16 little-endian two's-complement bytes, and any other float
    for the bytes of its shortest ``repr``; other elements raise
    ``ValueError``.  Float and ``object`` columns, where ``MIN2``/``MAX2``
    mix ints and floats, are classified by
    :func:`~repro.engine.sketches.by_encoding`, the rule the Count-Min key
    hash follows too.  Deterministic across processes, unlike ``hash()``.
    """
    if not keys:
        raise ValueError("need at least one key array")
    value = np.full(len(keys[0]), _FNV_OFFSET, dtype=np.uint64)
    for key in keys:
        if key.dtype.kind in "biu":
            value = _fold_integers(value, key)
            continue
        for rows, part in by_encoding(key):
            if len(part):
                value[rows] = _fold(value[rows], part)
    value ^= value >> np.uint64(32)
    value &= np.uint64(0xFFFFFFFF)
    return value


def _fold(value: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Fold one :func:`~repro.engine.sketches.by_encoding` group: integers
    by their bytes, floats by their ``repr``; any other element has no
    encoding."""
    if part.dtype.kind in "iu":
        return _fold_integers(value, part)
    if part.dtype.kind != "f":
        for element in part.tolist():
            if not isinstance(element, float):
                raise ValueError(f"cannot hash key element {element!r}")
    return fold_repr_bytes(value, part)


def _fold_integers(value: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Fold one integer key element per row into ``value``, in place.

    Each element stands for 16 little-endian two's-complement bytes, but
    only the significant ones (found from the array's min/max) are folded
    byte by byte.  The rest are sign bytes.  For a non-negative array they
    are all zero: ``x ^ 0 == x``, so each of those ``k`` steps is one
    multiply by the prime, and because multiplication modulo 2**64 is
    associative the ``k`` steps equal one multiply by
    ``_FNV_PRIME**k mod 2**64``.  An array holding a negative value folds
    its ``0xFF``/``0x00`` sign bytes one step at a time.
    """
    lowest, highest = (int(key.min()), int(key.max())) if len(key) else (0, 0)
    if key.dtype.kind == "u":
        # Unsigned keys have no sign bytes, even at or above 2**63.
        bits = key.astype(np.uint64, copy=False)
    else:
        bits = key.astype(np.int64, copy=False).view(np.uint64)
    scratch = np.empty_like(value)
    prime = np.uint64(_FNV_PRIME)
    byte_mask = np.uint64(0xFF)
    significant = _significant_bytes(lowest, highest)
    for index in range(significant):
        np.right_shift(bits, np.uint64(8 * index), out=scratch)
        np.bitwise_and(scratch, byte_mask, out=scratch)
        value ^= scratch
        value *= prime
    if lowest < 0:
        np.right_shift(bits, np.uint64(63), out=scratch)
        scratch *= byte_mask  # 0xFF where negative, 0x00 elsewhere
        for _ in range(_KEY_BYTES - significant):
            value ^= scratch
            value *= prime
    else:
        value *= np.uint64(pow(_FNV_PRIME, _KEY_BYTES - significant, 1 << 64))
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
