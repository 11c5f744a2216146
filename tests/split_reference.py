"""The per-row split, kept as the reference the column splitters must
reproduce row for row, and the scalar definition of the key hashes.

This is the split as it was before the splitters lost their row path: a
round-robin cursor stepped one tuple at a time, and a hash splitter that
evaluates its partitioning set with the row evaluator and hashes each
key tuple byte by byte.  :func:`fnv1a_state` is the definition of the
64-bit key state :func:`repro.engine.keyhash.fold_keys` computes a column
at a time: an integer in the int64/uint64 range stands for its 16
little-endian two's-complement bytes, an integral float in that range for
the integer it equals (so keys equal under ``==`` hash alike), and
anything else for its ``repr`` bytes.  :func:`fnv1a_hash` folds it to the
32-bit partition hash (:func:`repro.partitioning.partition_set.fnv1a_hash_arrays`),
and :func:`lane_hash` finalizes it into one Count-Min lane
(:func:`repro.engine.sketches.lane_hashes`).
"""

from typing import List, Sequence

from repro.cluster import RoundRobinSplitter
from repro.expr.evaluator import compile_key
from repro.partitioning.partition_set import HASH_RANGE

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_INT_LOW, _INT_HIGH = -(1 << 63), 1 << 64
_GAMMA = 0x9E3779B97F4A7C15


def fnv1a_state(key: tuple) -> int:
    """64-bit FNV-1a state of a key tuple."""
    value = _FNV_OFFSET
    for element in key:
        if (
            isinstance(element, float)
            and element.is_integer()
            and _INT_LOW <= element < _INT_HIGH
        ):
            element = int(element)
        if isinstance(element, int) and _INT_LOW <= element < _INT_HIGH:
            data = int(element).to_bytes(16, "little", signed=True)
        else:
            data = repr(element).encode()
        for byte in data:
            value ^= byte
            value = (value * _FNV_PRIME) & _MASK64
    return value


def fnv1a_hash(key: tuple) -> int:
    """Deterministic 32-bit hash of a key tuple (FNV-1a, folded)."""
    value = fnv1a_state(key)
    return (value ^ (value >> 32)) & 0xFFFFFFFF


def lane_hash(state: int, seed: int) -> int:
    """One Count-Min lane's 64-bit hash of a key state: splitmix64 of the
    state xor the lane's constant, ``seed`` times the splitmix64
    increment."""
    value = (state ^ (seed * _GAMMA)) & _MASK64
    value = (value + _GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


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
