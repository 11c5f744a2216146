"""Sketch-backed approximate aggregation: Count-Min summaries per pane.

The exact aggregation path ships one partial-state row per (pane, group)
from every host — linear in group cardinality.  This module implements the
third operator variant the optimizer can choose for queries that declare
an accuracy clause (``ERROR eps CONFIDENCE conf``): each host compresses a
pane's groups into a fixed-size :class:`EpochSummary` — a Count-Min sketch
per aggregate plus the host's locally heavy keys — and the aggregator
reassembles sliding windows from the shipped summaries.

Grounded in gSketch and "Sketch-based Querying of Distributed
Sliding-Window Data Streams" (PAPERS.md):

* :class:`CountMinSketch` — the classic ``d x w`` counter grid
  (``w = ceil(e / eps)``, ``d = ceil(ln(1 / delta))``).  Estimates never
  undercount and exceed the truth by more than ``eps * N`` with
  probability at most ``delta``.  Updates are *linear*, so sketches
  merge exactly (the distributed path relies on this).
* The ECM-sketch's pane ring — a Count-Min grid per pane, a window
  answered from the grids of its panes — is kept at per-pane resolution:
  the aggregator sums the window's pane grids cell-wise
  (:class:`~repro.engine.variants.ColumnarSketchSuperOp`), which is exact
  over the window, and the streaming wrapper drops panes no later window
  reads, so aggregator state stays independent of stream length.

Key hashing is seeded FNV-1a over the ``repr`` of each key element, or
of the int it equals (:func:`canonical_element`), so keys equal under
``==`` — as the group-by matches them — share their cells.  It is
deterministic across processes (independent of ``PYTHONHASHSEED``), so
worker-shipped summaries merge bit-identically with driver-side ones.
:func:`hash_keys` is the same hash, vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..gsql.analyzer import AnalyzedNode

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: The integers a key column holds: those of int64 and of uint64.
_INT_LOW, _INT_HIGH = -(1 << 63), 1 << 64


def canonical_element(element: object) -> object:
    """A key element as the int it equals, if it is a bool, an int, or an
    integral float in the int64/uint64 range (``True``, ``1`` and ``1.0``
    are all ``1``, ``-0.0`` is ``0``); any other element as it is.

    Keys equal under ``==`` must encode alike, because ``==`` is how the
    group-by and the join match them.  :func:`by_encoding` is this rule
    for a whole column.
    """
    if isinstance(element, float):
        if element.is_integer() and _INT_LOW <= element < _INT_HIGH:
            return int(element)
        return element
    if isinstance(element, int):
        return int(element)
    return element


def by_encoding(key: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The rows of a float or ``object`` key column as ``(row mask,
    elements)`` groups, by how they encode: integers in int64, integers
    only uint64 holds, and every other element (a float that equals no
    such integer, or anything else an object column holds)."""
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


def _hash_key(key: tuple, seed: int) -> int:
    """Seeded FNV-1a over the key tuple's canonical elements' ``repr`` —
    stable across processes."""
    value = (_FNV_OFFSET ^ (seed * _FNV_PRIME)) & _MASK64
    for part in key:
        for byte in repr(canonical_element(part)).encode():
            value ^= byte
            value = (value * _FNV_PRIME) & _MASK64
        value ^= 0x2D  # separator so (1, 23) != (12, 3)
        value = (value * _FNV_PRIME) & _MASK64
    return value


def hash_keys(parts: Sequence[np.ndarray], seeds: Sequence[int]) -> np.ndarray:
    """:func:`_hash_key` of many keys under many seeds at once.

    ``parts[i]`` holds every key's ``i``-th element (no parts: one empty
    key).  Returns a ``(len(seeds), keys)`` ``uint64`` array equal bit for
    bit to ``_hash_key`` of each key as the tuple of Python scalars
    ``tolist`` yields.  Each distinct element is ``repr``-encoded once
    (:func:`fold_repr_bytes`), for every seed and key together.
    """
    count = len(parts[0]) if parts else 1
    start = [(_FNV_OFFSET ^ (seed * _FNV_PRIME)) & _MASK64 for seed in seeds]
    value = np.repeat(np.asarray(start, dtype=np.uint64)[:, None], count, axis=1)
    for part in parts:
        if count == 0:
            break
        value = fold_repr_bytes(value, np.asarray(part))
        value = (value ^ np.uint64(0x2D)) * np.uint64(_FNV_PRIME)
    return value


def fold_repr_bytes(value: np.ndarray, part: np.ndarray) -> np.ndarray:
    """FNV-1a steps over the ``repr`` bytes of each element of a
    non-empty ``part``, or of the int it equals (:func:`canonical_element`):
    ``value[..., i]`` (any leading axes) folds element ``i``'s.
    The fold runs over a zero-padded byte grid, one byte column per step
    for every element together."""
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
    """Every element's encoded bytes, zero-padded into one ``uint8`` row
    each, plus the byte counts.  Integer, bool and string columns encode
    once per distinct value; floats and object columns (possibly of mixed
    types) element by element, through :func:`by_encoding`."""
    if part.dtype.kind == "b":
        part = part.astype(np.int64)  # a bool encodes as the int it equals
    if part.dtype.kind in "iuUS":
        distinct, inverse = np.unique(part, return_inverse=True)
        encoded = [repr(value).encode() for value in distinct.tolist()]
    else:
        inverse = None
        codes = np.empty(len(part), dtype=object)
        for rows, elements in by_encoding(part):
            codes[rows] = [repr(value).encode() for value in elements.tolist()]
        encoded = codes.tolist()
    width = max(map(len, encoded))
    grid = np.frombuffer(
        b"".join(code.ljust(width, b"\0") for code in encoded), dtype=np.uint8
    ).reshape(len(encoded), width)
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    if inverse is None:
        return grid, lengths
    return grid[inverse], lengths[inverse]


def sketch_dimensions(epsilon: float, delta: float) -> Tuple[int, int]:
    """Grid shape guaranteeing error <= eps*N with probability >= 1-delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    width = math.ceil(math.e / epsilon)
    depth = math.ceil(math.log(1.0 / delta))
    return width, max(1, depth)


class CountMinSketch:
    """A ``depth x width`` counter grid over hashed group keys.

    ``update`` folds a non-negative weight (1 for COUNT, the argument
    value for SUM); ``estimate`` returns the per-row minimum, an upper
    bound on the key's true total.
    """

    __slots__ = ("width", "depth", "seed", "counts", "total")

    def __init__(self, width: int, depth: int, seed: int = 0):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.counts = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    @classmethod
    def from_error(
        cls, epsilon: float, delta: float, seed: int = 0
    ) -> "CountMinSketch":
        width, depth = sketch_dimensions(epsilon, delta)
        return cls(width, depth, seed=seed)

    def _columns(self, key: tuple) -> List[int]:
        return [
            _hash_key(key, self.seed * 1001 + row) % self.width
            for row in range(self.depth)
        ]

    def update(self, key: tuple, weight: int = 1) -> None:
        if weight < 0:
            raise ValueError("Count-Min handles non-negative weights only")
        self.total += weight
        for row, column in enumerate(self._columns(key)):
            self.counts[row, column] += weight

    def estimate(self, key: tuple) -> int:
        columns = self._columns(key)
        return int(
            min(self.counts[row, column] for row, column in enumerate(columns))
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Cell-wise sum — exact, because updates are linear."""
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
        ):
            raise ValueError("cannot merge sketches with different shapes")
        self.counts += other.counts
        self.total += other.total

    def copy(self) -> "CountMinSketch":
        clone = CountMinSketch(self.width, self.depth, seed=self.seed)
        clone.counts = self.counts.copy()
        clone.total = self.total
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.seed == other.seed
            and self.total == other.total
            and bool(np.array_equal(self.counts, other.counts))
        )

    def __reduce__(self):
        return (
            _rebuild_sketch,
            (self.width, self.depth, self.seed, self.counts, self.total),
        )


def _rebuild_sketch(width, depth, seed, counts, total):
    sketch = CountMinSketch(width, depth, seed=seed)
    sketch.counts = counts
    sketch.total = total
    return sketch


@dataclass
class EpochSummary:
    """One host's shipped digest of one pane — the sketch-variant wire unit.

    ``sketches`` holds one Count-Min per aggregate call (COUNT
    folds weight 1, SUM folds the argument value); ``candidates`` are the
    host's locally heavy keys — every key whose local row count reaches
    ``epsilon * local_rows`` — which caps the list at ``1/epsilon``
    entries while guaranteeing every globally epsilon-heavy key is a
    candidate on at least one host.  Summaries merge exactly (sketches
    are linear; candidate sets union), so aggregation order
    never changes the reassembled answer.
    """

    pane: int
    sketches: Tuple[CountMinSketch, ...]
    candidates: Tuple[tuple, ...]
    rows: int = 0

    def merge(self, other: "EpochSummary") -> "EpochSummary":
        if self.pane != other.pane:
            raise ValueError("cannot merge summaries of different panes")
        merged = tuple(sketch.copy() for sketch in self.sketches)
        for mine, theirs in zip(merged, other.sketches):
            mine.merge(theirs)
        seen = set(self.candidates)
        candidates = list(self.candidates) + [
            key for key in other.candidates if key not in seen
        ]
        return EpochSummary(
            pane=self.pane,
            sketches=merged,
            candidates=tuple(candidates),
            rows=self.rows + other.rows,
        )


def summary_wire_bytes(
    epsilon: float, delta: float, num_aggregates: int, key_width: int
) -> int:
    """Deterministic modeled wire size of one :class:`EpochSummary`.

    Used by network metering and the cost model: grid bytes for every
    aggregate's sketch plus the worst-case ``1/epsilon`` candidate keys
    and a small header.  Depends only on the accuracy clause and the
    query shape, never on data, so all execution modes charge alike.
    """
    width, depth = sketch_dimensions(epsilon, delta)
    candidate_cap = math.ceil(1.0 / epsilon)
    return (
        num_aggregates * width * depth * 8
        + candidate_cap * max(key_width, 8)
        + 16
    )


def node_summary_bytes(node: AnalyzedNode) -> int:
    """:func:`summary_wire_bytes` of one summary of the approximate
    aggregation ``node``: its accuracy clause, its aggregates, and its
    non-temporal group-by key width."""
    if node.accuracy is None:
        raise ValueError(
            f"node {node.name!r} has no ERROR/CONFIDENCE clause; "
            "a sketch summary is undefined"
        )
    key_width = sum(g.ctype.width for g in node.group_by if not g.is_temporal)
    return summary_wire_bytes(
        node.accuracy.epsilon,
        node.accuracy.delta,
        len(node.aggregates),
        key_width,
    )
