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
  probability at most ``delta``.  Updates are *linear*: the cell-wise
  sum of two streams' grids is the grid of both (the distributed path
  relies on this).
* The ECM-sketch's pane ring — a Count-Min grid per pane, a window
  answered from the grids of its panes — is kept at per-pane resolution:
  the aggregator sums the window's pane grids cell-wise
  (:class:`~repro.engine.variants.ColumnarSketchSuperOp`), which is exact
  over the window, and the streaming wrapper drops panes no later window
  reads, so aggregator state stays independent of stream length.

A key is folded once, to its partition-hash state
(:func:`~repro.engine.keyhash.fold_keys`), so keys equal under ``==``
share their cells; each lane finalizes that state with its own seed
(:func:`lane_hashes`).  Cells are independent of ``PYTHONHASHSEED``, so
worker-shipped summaries sum bit-identically with driver-side ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..gsql.analyzer import AnalyzedNode
from .keyhash import fold_keys

#: splitmix64's increment; a lane's seed times it is the lane's constant.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def lane_seeds(aggregates: Sequence[int], depth: int) -> np.ndarray:
    """Every lane's seed for the sketches of the aggregates numbered
    ``aggregates``, aggregate-major: depth row ``row`` of aggregate
    ``index`` hashes with seed ``index * 1001 + row``."""
    index = np.asarray(aggregates, dtype=np.uint64)[:, None]
    return (index * np.uint64(1001) + np.arange(depth, dtype=np.uint64)).ravel()


def lane_hashes(states: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``(lanes, keys)`` 64-bit hashes: splitmix64 of each key's
    :func:`~repro.engine.keyhash.fold_keys` state xor its lane's constant
    (the lane seed times the splitmix64 increment).  A key's cell in a
    lane is its hash modulo the sketch width."""
    value = states[None, :] ^ (seeds * _GAMMA)[:, None]
    value += _GAMMA
    value ^= value >> np.uint64(30)
    value *= _MIX1
    value ^= value >> np.uint64(27)
    value *= _MIX2
    value ^= value >> np.uint64(31)
    return value


def key_cells(parts: Sequence[np.ndarray], seeds: np.ndarray, width: int) -> np.ndarray:
    """``(lanes, keys)`` cells of the keys whose parts are ``parts`` (no
    parts: the one empty key), one lane per seed."""
    cells = lane_hashes(fold_keys(parts), seeds) % np.uint64(width)
    return cells.astype(np.intp)


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

    Keys come as columns, one array per key part.  ``update`` folds
    non-negative weights (1 for COUNT, the argument value for SUM);
    ``estimate`` returns each key's per-row minimum, an upper bound on its
    true total.  ``seed`` is the aggregate's index (:func:`lane_seeds`).
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

    def _cells(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        return key_cells(parts, lane_seeds([self.seed], self.depth), self.width)

    def update(self, parts: Sequence[np.ndarray], weights=1) -> None:
        """Fold every key of the columns ``parts`` with its weight (one
        weight for all, or one per key)."""
        cells = self._cells(parts)
        weights = np.broadcast_to(np.asarray(weights, dtype=np.int64), cells.shape[1:])
        if (weights < 0).any():
            raise ValueError("Count-Min handles non-negative weights only")
        self.total += int(weights.sum())
        np.add.at(self.counts, (np.arange(self.depth)[:, None], cells), weights)

    def estimate(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Every key's estimate: its cells' minimum over the depth rows."""
        cells = self._cells(parts)
        return self.counts[np.arange(self.depth)[:, None], cells].min(axis=0)

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
    candidate on at least one host.  The aggregator sums a window's grids
    (sketches are linear) and unions its candidates, so aggregation
    order never changes the reassembled answer.
    """

    pane: int
    sketches: Tuple[CountMinSketch, ...]
    candidates: Tuple[tuple, ...]
    rows: int = 0


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
