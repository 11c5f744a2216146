"""The one key encoding: every key's 64-bit FNV-1a state.

:func:`fold_keys` folds each key, one array per key part, over a
canonical byte encoding.  The partition hash
(:func:`~repro.partitioning.partition_set.fnv1a_hash_arrays`) folds that
state to 32 bits; each Count-Min lane finalizes it
(:func:`~repro.engine.sketches.lane_hashes`).  Keys equal under ``==``,
the equality the group-by and the join match keys by, fold equal: an
integer, or a float equal to one in the int64/uint64 range, stands for
its 16 little-endian two's-complement bytes, anything else for its
``repr`` bytes, the parts one after another with no separator.  The
scalar definition is ``fnv1a_state`` in ``tests/split_reference.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: The integers a key column holds: those of int64 and of uint64.
_INT_LOW, _INT_HIGH = -(1 << 63), 1 << 64
#: Bytes one integer key element contributes to the state.
_KEY_BYTES = 16


def canonical_element(element: object) -> object:
    """A key element as the int it equals, if it is a bool, an int, or an
    integral float in the int64/uint64 range (``True``, ``1`` and ``1.0``
    are all ``1``, ``-0.0`` is ``0``); any other element as it is."""
    if isinstance(element, float):
        if element.is_integer() and _INT_LOW <= element < _INT_HIGH:
            return int(element)
        return element
    if isinstance(element, int):
        return int(element)
    return element


def by_encoding(key: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The rows of a non-integer key column as ``(row mask, elements)``
    groups, by how they encode: integers in int64, integers only uint64
    holds, and every other element (a float that equals no such integer,
    a string, or anything else an ``object`` column holds)."""
    if key.dtype.kind == "f":
        numbers = key
        integral = (key == np.trunc(key)) & (key >= _INT_LOW) & (key < _INT_HIGH)
    else:  # MIN2/MAX2 of an int and a float operand mix both in objects
        numbers = np.fromiter(map(canonical_element, key.tolist()), object, len(key))
        integral = np.fromiter(
            (type(n) is int and _INT_LOW <= n < _INT_HIGH for n in numbers),
            bool,
            len(key),
        )
    signed = integral.copy()
    signed[integral] = numbers[integral] < (1 << 63)
    unsigned = integral & ~signed
    other = ~integral
    return [
        (signed, numbers[signed].astype(np.int64)),
        (unsigned, numbers[unsigned].astype(np.uint64)),
        (other, numbers[other]),
    ]


def fold_keys(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Every key's 64-bit FNV-1a state, ``parts[i]`` holding every key's
    ``i``-th part (no parts: the one empty key).  A part that is not of
    integers folds in its :func:`by_encoding` groups; a row's state
    depends on its own key alone, so the grouping changes no bit."""
    value = np.full(len(parts[0]) if parts else 1, _FNV_OFFSET, dtype=np.uint64)
    for part in parts if len(value) else ():
        if part.dtype.kind in "biu":
            value = _fold_integers(value, part)
            continue
        for rows, elements in by_encoding(part):
            if len(elements):
                integers = elements.dtype.kind in "iu"
                fold = _fold_integers if integers else fold_repr_bytes
                value[rows] = fold(value[rows], elements)
    return value


def _significant_bytes(lowest: int, highest: int) -> int:
    """Leading bytes of the little-endian two's-complement encoding after
    which every value in ``[lowest, highest]`` only repeats its sign byte
    (``0x00``, or ``0xFF`` for a negative value)."""
    if lowest >= 0:
        return (highest.bit_length() + 7) // 8
    # One more bit than the magnitude, for the sign.
    return max(~lowest, highest).bit_length() // 8 + 1


def _fold_integers(value: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Fold one integer key element per row into ``value``, in place.

    Only the significant bytes (from the array's min/max) fold byte by
    byte.  The rest are sign bytes: for a non-negative array, ``k`` zero
    bytes fold as one multiply by ``_FNV_PRIME**k mod 2**64``; an array
    holding a negative value folds its ``0xFF``/``0x00`` bytes one by one.
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


def fold_repr_bytes(value: np.ndarray, part: np.ndarray) -> np.ndarray:
    """FNV-1a steps over the ``repr`` bytes of each element of a
    non-empty ``part`` that encodes by its ``repr`` (no integers):
    ``value[i]`` folds element ``i``'s.  The fold runs over a zero-padded
    byte grid, one byte column per step for every element together."""
    prime = np.uint64(_FNV_PRIME)
    grid, lengths = _byte_grid(part)
    shortest = int(lengths.min())
    for column in range(grid.shape[1]):
        folded = (value ^ grid[:, column]) * prime
        value = (
            folded
            if column < shortest
            else np.where(column < lengths, folded, value)
        )
    return value


def _byte_grid(part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every element's ``repr`` bytes, zero-padded into one ``uint8`` row
    each, plus the byte counts."""
    encoded = [repr(value).encode() for value in part.tolist()]
    width = max(map(len, encoded))
    grid = np.frombuffer(
        b"".join(code.ljust(width, b"\0") for code in encoded), dtype=np.uint8
    ).reshape(len(encoded), width)
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    return grid, lengths
