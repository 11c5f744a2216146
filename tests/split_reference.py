"""The per-row split, kept as the reference the column splitters must
reproduce row for row.

This is the split as it was before the splitters lost their row path: a
round-robin cursor stepped one tuple at a time, and a hash splitter that
evaluates its partitioning set with the row evaluator and hashes each
key tuple byte by byte.  :func:`fnv1a_hash` is the definition of the
partition hash :func:`repro.partitioning.partition_set.fnv1a_hash_arrays`
computes a column at a time: an integer stands for its 16 little-endian
two's-complement bytes, an integral float in the int64/uint64 range for
the integer it equals (so keys equal under ``==`` hash alike), and
anything else for its ``str`` bytes.
"""

from typing import List, Sequence

from repro.cluster import RoundRobinSplitter
from repro.expr.evaluator import compile_key
from repro.partitioning.partition_set import HASH_RANGE

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_INT_LOW, _INT_HIGH = -(1 << 63), 1 << 64


def fnv1a_hash(key: tuple) -> int:
    """Deterministic 32-bit hash of a key tuple (FNV-1a, folded)."""
    value = _FNV_OFFSET
    for element in key:
        if (
            isinstance(element, float)
            and element.is_integer()
            and _INT_LOW <= element < _INT_HIGH
        ):
            element = int(element)
        if isinstance(element, int):
            data = element.to_bytes(16, "little", signed=True)
        else:
            data = str(element).encode()
        for byte in data:
            value ^= byte
            value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return (value ^ (value >> 32)) & 0xFFFFFFFF


def reference_assign(splitter, rows: Sequence[dict], offset: int = 0) -> List[int]:
    """Every row's partition, one row at a time: the round-robin cursor
    continues at ``offset``; a hash ignores it."""
    count = splitter.num_partitions
    if isinstance(splitter, RoundRobinSplitter):
        return [(offset + position) % count for position in range(len(rows))]
    key_of = compile_key(splitter.partitioning_set.exprs)
    bucket = HASH_RANGE // count + (HASH_RANGE % count > 0)
    return [min(fnv1a_hash(key_of(row)) // bucket, count - 1) for row in rows]


def reference_split(splitter, rows: Sequence[dict], offset: int = 0) -> List[List[dict]]:
    """The rows of every partition, in input order."""
    parts: List[List[dict]] = [[] for _ in range(splitter.num_partitions)]
    for row, index in zip(rows, reference_assign(splitter, rows, offset)):
        parts[index].append(row)
    return parts
