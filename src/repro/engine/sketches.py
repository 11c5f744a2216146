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
  probability at most ``delta``.  Plain updates are *linear*, so sketches
  merge exactly (the distributed path relies on this); the optional
  conservative-update mode tightens single-site error but sacrifices
  mergeability, so shipped summaries never use it.
* The ECM-sketch's pane ring — a Count-Min grid per pane, a window
  answered from the grids of its panes — is kept at per-pane resolution:
  the aggregator sums the window's pane grids cell-wise
  (:class:`~repro.engine.variants.ColumnarSketchSuperOp`), which is exact
  over the window, and the streaming wrapper drops panes no later window
  reads, so aggregator state stays independent of stream length.

Key hashing is seeded FNV-1a over the key tuple's repr — deterministic
across processes (independent of ``PYTHONHASHSEED``), so worker-shipped
summaries merge bit-identically with driver-side ones.  :func:`hash_keys`
is the same hash, vectorized.
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


def _hash_key(key: tuple, seed: int) -> int:
    """Seeded FNV-1a over the key tuple — stable across processes."""
    value = (_FNV_OFFSET ^ (seed * _FNV_PRIME)) & _MASK64
    for part in key:
        for byte in repr(part).encode():
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
    ``tolist`` yields.  Each distinct element is ``repr``-encoded once;
    the FNV-1a fold then runs over a zero-padded byte grid, one byte
    column per step, for every seed and key together.
    """
    prime = np.uint64(_FNV_PRIME)
    count = len(parts[0]) if parts else 1
    start = [(_FNV_OFFSET ^ (seed * _FNV_PRIME)) & _MASK64 for seed in seeds]
    value = np.repeat(np.asarray(start, dtype=np.uint64)[:, None], count, axis=1)
    for part in parts:
        if count == 0:
            break
        grid, lengths = _byte_grid(np.asarray(part))
        shortest = int(lengths.min())
        for column in range(grid.shape[1]):
            folded = (value ^ grid[:, column]) * prime
            value = (
                folded
                if column < shortest
                else np.where(column < lengths, folded, value)
            )
        value = (value ^ np.uint64(0x2D)) * prime
    return value


def _byte_grid(part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every element's ``repr`` bytes, zero-padded into one ``uint8`` row
    each, plus the byte counts.  Integer, bool and string columns encode
    once per distinct value; any other (floats, where ``0.0 == -0.0``;
    object columns, possibly of mixed types) element by element."""
    if part.dtype.kind in "iubUS":
        distinct, inverse = np.unique(part, return_inverse=True)
    else:
        distinct, inverse = part, None
    encoded = [repr(value).encode() for value in distinct.tolist()]
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
    bound on the key's true total.  With ``conservative=True`` each
    update raises only the rows still at the current minimum — strictly
    tighter estimates, but the sketch is no longer a linear transform of
    the input, so :meth:`merge` refuses; distributed (shipped) sketches
    must stay plain.
    """

    __slots__ = ("width", "depth", "seed", "conservative", "counts", "total")

    def __init__(
        self,
        width: int,
        depth: int,
        seed: int = 0,
        conservative: bool = False,
    ):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.conservative = conservative
        self.counts = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    @classmethod
    def from_error(
        cls,
        epsilon: float,
        delta: float,
        seed: int = 0,
        conservative: bool = False,
    ) -> "CountMinSketch":
        width, depth = sketch_dimensions(epsilon, delta)
        return cls(width, depth, seed=seed, conservative=conservative)

    def _columns(self, key: tuple) -> List[int]:
        return [
            _hash_key(key, self.seed * 1001 + row) % self.width
            for row in range(self.depth)
        ]

    def update(self, key: tuple, weight: int = 1) -> None:
        if weight < 0:
            raise ValueError("Count-Min handles non-negative weights only")
        columns = self._columns(key)
        self.total += weight
        if self.conservative:
            current = min(
                self.counts[row, column]
                for row, column in enumerate(columns)
            )
            target = current + weight
            for row, column in enumerate(columns):
                if self.counts[row, column] < target:
                    self.counts[row, column] = target
        else:
            for row, column in enumerate(columns):
                self.counts[row, column] += weight

    def estimate(self, key: tuple) -> int:
        columns = self._columns(key)
        return int(
            min(self.counts[row, column] for row, column in enumerate(columns))
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Cell-wise sum — exact for plain sketches (linearity)."""
        if self.conservative or other.conservative:
            raise ValueError(
                "conservative-update sketches are not mergeable; "
                "distributed sketches must use plain updates"
            )
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
        ):
            raise ValueError("cannot merge sketches with different shapes")
        self.counts += other.counts
        self.total += other.total

    def copy(self) -> "CountMinSketch":
        clone = CountMinSketch(
            self.width, self.depth, seed=self.seed,
            conservative=self.conservative,
        )
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
            and self.conservative == other.conservative
            and self.total == other.total
            and bool(np.array_equal(self.counts, other.counts))
        )

    def __reduce__(self):
        return (
            _rebuild_sketch,
            (
                self.width, self.depth, self.seed, self.conservative,
                self.counts, self.total,
            ),
        )


def _rebuild_sketch(width, depth, seed, conservative, counts, total):
    sketch = CountMinSketch(width, depth, seed=seed, conservative=conservative)
    sketch.counts = counts
    sketch.total = total
    return sketch


@dataclass
class EpochSummary:
    """One host's shipped digest of one pane — the sketch-variant wire unit.

    ``sketches`` holds one plain Count-Min per aggregate call (COUNT
    folds weight 1, SUM folds the argument value); ``candidates`` are the
    host's locally heavy keys — every key whose local row count reaches
    ``epsilon * local_rows`` — which caps the list at ``1/epsilon``
    entries while guaranteeing every globally epsilon-heavy key is a
    candidate on at least one host.  Summaries merge exactly (plain
    sketches are linear; candidate sets union), so aggregation order
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
