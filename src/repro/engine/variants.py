"""Aggregation variants: the kernels the runtime compiles, and the row reference.

Every aggregation plan node reaches its kernel through
:func:`build_variant_kernel`, keyed by the plan's
:class:`~repro.distopt.plan_ir.Variant`.  Every kernel takes and returns
:class:`~repro.engine.columnar.ColumnBatch`es:

* ``full`` / ``sub`` / ``super`` of a tumbling node — the group-by
  kernels of :mod:`repro.engine.columnar`, a UDAF folded per group
  inside them.  Pane states *are* SUB states (panes are tumbling
  sub-aggregates), so ``sub`` of a windowed node is the same SUB kernel.
* ``full`` / ``super`` of a windowed node (``RANGE``/``SLIDE`` clause) —
  :class:`ColumnarSlidingOp`: pane states (computed by the SUB kernel for
  FULL, shipped for SUPER) are copied once per window end that reads
  their pane, relabelled with that end, and merged by the tumbling SUPER
  kernel.
* ``sketch_sub`` / ``sketch_super`` — the approximate pair the optimizer
  may choose for queries declaring ``ERROR``/``CONFIDENCE``:
  :class:`ColumnarSketchSubOp` folds each pane into a fixed-size
  :class:`~repro.engine.sketches.EpochSummary` with array adds, and
  SKETCH_SUPER is :class:`ColumnarSlidingOp` over the shipped summary
  rows, each window's grids summed by :class:`ColumnarSketchSuperOp`.

:func:`build_variant_operator` is the row reference, the §3.4 oracle
(:func:`~repro.engine.executor.run_centralized` compiles every node FULL
through it); the runtime never runs it.  A windowed node is answered by
:class:`WindowAggregateOp`, which folds each window's raw rows by
definition and shares neither the pane decomposition nor any ``merge``
with the kernels it checks.  The sketch pair has no row form — the oracle
compares approximate queries against the *exact* centralized answer.

Kernels are *pure* (full recompute per call): one compiled instance is
shared by every host's plan copy, so incremental state lives exclusively
in the streaming wrappers.  The windowed kernels expose
``process_window(batch, ends)`` so a streaming caller can emit exactly
the window labels its watermark closed; plain ``process`` emits every
window the input panes intersect, which is the one-shot semantics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional

import numpy as np

from ..expr.vectorizer import vectorize_expr, vectorize_key, vectorize_predicate
from ..gsql.analyzer import AnalyzedNode, NodeKind
from .columnar import (
    ColumnarOperator,
    ColumnBatch,
    _empty_output,
    _filter,
    _filter_then_project,
    _group,
    build_columnar_operator,
    materialize,
)
from .operators import AggregateOp, Batch, Operator, build_operator
from .panes import WindowSpec
from .sketches import (
    EpochSummary,
    _rebuild_sketch,
    key_cells,
    lane_seeds,
    sketch_dimensions,
)

#: Column carrying the per-pane :class:`EpochSummary` in sketch-variant rows.
SUMMARY_COLUMN = "__summary"


def _temporal(node: AnalyzedNode):
    temporal = [g for g in node.group_by if g.is_temporal]
    if len(temporal) != 1:
        raise ValueError(
            f"{node.name} needs exactly one temporal group-by column "
            f"to serve as the pane index"
        )
    return temporal[0]


class WindowAggregateOp(AggregateOp):
    """Row reference of a windowed aggregation node (the §3.4 oracle),
    by definition.

    The window labelled by end pane ``e`` is the tumbling aggregate of
    every raw row whose pane (its temporal group-by value) lies in ``[e -
    window_panes + 1, e]``: those rows fold with ``update`` only, their
    temporal key relabelled ``e``, then HAVING and the SELECT projection
    apply.  The ends are :meth:`WindowSpec.window_ends_covering` of the
    input's panes.  Nothing here decomposes a window into pane states or
    calls an aggregate's ``merge``, so the kernels' pane algebra is
    checked against the definition rather than against itself.
    """

    def __init__(self, node: AnalyzedNode, spec: Optional[WindowSpec] = None):
        super().__init__(node)
        self._spec = spec if spec is not None else node.window
        if self._spec is None:
            raise ValueError(f"{node.name} has no window clause")
        self._pane = self._gb_names.index(_temporal(node).name)

    def process(self, *batches: Batch) -> Batch:
        (rows,) = batches
        keyed = self._keyed(rows)
        pane, width = self._pane, self._spec.window_panes
        ends = self._spec.window_ends_covering({key[pane] for key, _ in keyed})
        windows: Dict[int, list] = {end: [] for end in ends}
        for key, row in keyed:
            # the windows reading this row's pane p end in [p, p + width - 1]
            first = bisect_left(ends, key[pane])
            last = bisect_right(ends, key[pane] + width - 1)
            for end in ends[first:last]:
                windows[end].append((key[:pane] + (end,) + key[pane + 1:], row))
        result: Batch = []
        for window in windows.values():
            result.extend(self._emit(self._accumulate(window)))
        return result


class ColumnarSlidingOp(ColumnarOperator):
    """Window reassembly: the FULL/SUPER and SKETCH_SUPER kernels of a
    windowed aggregation node.

    The window labelled by end pane ``e`` reads panes ``[e - window + 1,
    e]``.  Each pane-state row is copied once per requested window end
    that reads its pane, with its pane column relabelled to that end, and
    ``merge`` then treats every end as one tumbling pane: the SUPER
    kernel merges each ``(end, group)``, finalizes, applies HAVING and
    projects; the sketch merge sums each end's summaries.  States are
    ordered by pane first, so each window merges its panes in pane order
    and a pane's rows in input order.

    ``sub`` turns raw rows into pane states (FULL) or is None (the states
    arrive shipped); ``sub`` and ``merge`` are kernels.  A node without a
    window clause (a tumbling approximate query) reassembles one-pane
    windows.
    """

    def __init__(self, node: AnalyzedNode, merge, sub=None):
        self._spec = node.window if node.window is not None else WindowSpec(1, 1)
        self._pane_column = _temporal(node).name
        self._merge = merge
        self._sub = sub

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        states = self._states(batch)
        if len(states) == 0:
            return self._merge.process(states)
        panes = np.unique(states.columns[self._pane_column]).tolist()
        return self._reassemble(states, self._spec.window_ends_covering(panes))

    def process_window(self, batch: ColumnBatch, ends: List[int]) -> ColumnBatch:
        """Emit only the windows labelled by ``ends`` (ascending)."""
        return self._reassemble(self._states(batch), ends)

    def _states(self, batch: ColumnBatch) -> ColumnBatch:
        return batch if self._sub is None else self._sub.process(batch)

    def _reassemble(self, states: ColumnBatch, ends: List[int]) -> ColumnBatch:
        ends = np.asarray(ends, dtype=np.int64)
        if len(states) == 0 or len(ends) == 0:
            return self._merge.process(ColumnBatch({}, 0))
        panes = np.asarray(states.columns[self._pane_column])
        by_pane = np.argsort(panes, kind="stable")
        panes = panes[by_pane]
        first = np.searchsorted(ends, panes, "left")
        last = np.searchsorted(ends, panes + (self._spec.window_panes - 1), "right")
        copies = last - first
        rows = np.repeat(by_pane, copies)
        offsets = np.arange(len(rows)) - np.repeat(np.cumsum(copies) - copies, copies)
        windowed = states.select(rows)
        windowed.columns[self._pane_column] = ends[
            np.repeat(first, copies) + offsets
        ]
        return self._merge.process(windowed)


def _sketch_prologue(node: AnalyzedNode):
    """Shared validation for the sketch variant pair."""
    if node.kind is not NodeKind.AGGREGATION:
        raise ValueError(f"{node.name} is not an aggregation node")
    if node.accuracy is None:
        raise ValueError(
            f"{node.name} has no ERROR/CONFIDENCE clause; the sketch "
            "variant is only eligible under a declared accuracy bound"
        )
    if not all(call.approximate for call in node.aggregates):
        raise ValueError(
            f"{node.name} mixes exact and APPROX_* aggregates; the sketch "
            "variant requires every aggregate to be approximate"
        )
    return _temporal(node)


class ColumnarSketchSubOp(ColumnarOperator):
    """SKETCH_SUB kernel: compress each pane into one EpochSummary row.

    Applies the node's WHERE filter and factorizes ``(pane, key)`` groups
    once.  Each group's weight — its row count for COUNT, its summed
    (integer) argument for SUM — is added into one (mergeable)
    ``depth x width`` Count-Min grid per aggregate call and pane, at the
    cells :func:`~repro.engine.sketches.key_cells` gives the key.  The
    candidates are the locally heavy keys: every key whose pane-local row
    count reaches ``max(1, epsilon * pane_rows)``, which caps the list at
    ``1/epsilon`` entries while guaranteeing every globally epsilon-heavy
    key is a candidate on at least one host.  Emits one ``{pane,
    __summary}`` row per pane, panes ascending.
    """

    def __init__(self, node: AnalyzedNode):
        temporal = _sketch_prologue(node)
        self._pane_name = temporal.name
        self._keys = vectorize_key(
            [temporal.expr]
            + [g.expr for g in node.group_by if not g.is_temporal]
        )
        self._where = (
            vectorize_predicate(node.where) if node.where is not None else None
        )
        self._epsilon = node.accuracy.epsilon
        self._width, self._depth = sketch_dimensions(
            node.accuracy.epsilon, node.accuracy.delta
        )
        self._weights = [
            None if call.func == "COUNT" else vectorize_expr(call.arg)
            for call in node.aggregates
        ]
        # Only a SUM weight is read in group order.
        self._ordered = any(fn is not None for fn in self._weights)
        self._seeds = lane_seeds(range(len(self._weights)), self._depth)

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        columns, length = batch.columns, len(batch)
        if length and self._where is not None:
            columns, length = _filter(columns, length, self._where(columns, length))
        if length == 0:
            return _empty_output([self._pane_name, SUMMARY_COLUMN])
        order, starts, counts, (group_pane, *group_keys) = _group(
            self._keys(columns, length), length, self._ordered
        )
        # Groups are pane-major: each pane is a run of groups.
        pane_starts = np.flatnonzero(
            np.concatenate(([True], group_pane[1:] != group_pane[:-1]))
        )
        num_panes = len(pane_starts)
        pane_of = np.repeat(
            np.arange(num_panes), np.diff(np.append(pane_starts, len(counts)))
        )
        pane_rows = np.add.reduceat(counts, pane_starts)
        weights = np.stack(
            [
                counts
                if fn is None
                else np.add.reduceat(_weight(fn, columns, length)[order], starts)
                for fn in self._weights
            ]
        )
        grids = self._fold(weights, pane_of, num_panes, group_keys)
        heavy = counts >= np.maximum(1.0, self._epsilon * pane_rows)[pane_of]
        candidates: List[List[tuple]] = [[] for _ in range(num_panes)]
        for pane, key in zip(
            pane_of[heavy].tolist(), _key_tuples(group_keys, heavy)
        ):
            candidates[pane].append(key)
        summaries = np.empty(num_panes, dtype=object)
        panes = group_pane[pane_starts]
        for index, pane in enumerate(panes.tolist()):
            summaries[index] = EpochSummary(
                pane=pane,
                sketches=tuple(
                    _rebuild_sketch(
                        self._width, self._depth, call, grids[index, call]
                    )
                    for call in range(len(self._weights))
                ),
                candidates=tuple(sorted(candidates[index], key=repr)),
            )
        return ColumnBatch(
            {self._pane_name: panes, SUMMARY_COLUMN: summaries}, num_panes
        )

    def _fold(self, weights, pane_of, num_panes, group_keys) -> np.ndarray:
        """``(panes, aggregates, depth, width)`` Count-Min grids: every
        group's weight added at its key's cell in each depth row."""
        seeds, width = len(self._seeds), self._width
        # No key columns: one column of cells, the key () of every group.
        cells = key_cells(group_keys, self._seeds, width)
        flat = (pane_of * seeds + np.arange(seeds)[:, None]) * width + cells
        grids = np.zeros(num_panes * seeds * width, dtype=np.int64)
        np.add.at(grids, flat.ravel(), np.repeat(weights, self._depth, axis=0).ravel())
        return grids.reshape(num_panes, len(self._weights), self._depth, width)


def _weight(fn, columns, length: int) -> np.ndarray:
    """A SUM argument as per-row integer Count-Min weights, each value
    truncated like ``int()``."""
    values = materialize(fn(columns, length), length).astype(np.int64)
    if (values < 0).any():
        raise ValueError("Count-Min handles non-negative weights only")
    return values


def _key_tuples(group_keys: List[np.ndarray], selector: np.ndarray) -> List[tuple]:
    """The selected groups' keys as tuples of Python scalars — what the
    hash and the candidate order (``repr``) are defined over."""
    if not group_keys:
        return [()] * int(np.count_nonzero(selector))
    return list(zip(*(key[selector].tolist() for key in group_keys)))


class ColumnarSketchSuperOp(ColumnarOperator):
    """SKETCH_SUPER merge: per label, estimate every candidate from the sum
    of the label's Count-Min grids.

    Run inside :class:`ColumnarSlidingOp`, a label is a window end and its
    summaries are the window's panes from every host.  Count-Min sketches are
    linear, so their cell-wise sum is the window's own sketch — the ECM
    pane ring of Papapetrou et al. at per-pane resolution, exact over the
    window — and all approximation error comes from the Count-Min grids,
    which the accuracy clause sizes.  Every candidate key of the window's
    panes is estimated (in ``repr`` order): the candidates of every label
    are hashed in one :func:`~repro.engine.sketches.key_cells` call, and
    each estimate is the minimum over its label's summed grid at its
    cells.  Then HAVING and the projection run over the estimates.
    """

    def __init__(self, node: AnalyzedNode):
        self._pane_name = _sketch_prologue(node).name
        self._key_names = [g.name for g in node.group_by if not g.is_temporal]
        self._slots = [call.slot for call in node.aggregates]
        self._width, self._depth = sketch_dimensions(
            node.accuracy.epsilon, node.accuracy.delta
        )
        self._seeds = lane_seeds(range(len(self._slots)), self._depth)
        self._having = (
            vectorize_predicate(node.having) if node.having is not None else None
        )
        self._outputs = [
            (column.name, vectorize_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self._output_names = [column.name for column in node.columns]

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        windows: Dict[int, List[EpochSummary]] = {}
        if len(batch):
            labels = batch.columns[self._pane_name].tolist()
            for label, summary in zip(labels, batch.columns[SUMMARY_COLUMN]):
                windows.setdefault(label, []).append(summary)
        labels, keys, owners, grids = [], [], [], []
        for owner, label in enumerate(sorted(windows)):
            summaries = windows[label]
            counts = [[sketch.counts for sketch in s.sketches] for s in summaries]
            grids.append(np.sum(counts, axis=0))  # (aggregates, depth, width)
            candidates = {key for summary in summaries for key in summary.candidates}
            ordered = sorted(candidates, key=repr)
            labels += [label] * len(ordered)
            owners += [owner] * len(ordered)
            keys += ordered
        if not labels:
            return _empty_output(self._output_names)
        count, key_parts = len(keys), list(zip(*keys))
        # Object columns keep each part exactly as the candidate holds it.
        parts = [np.fromiter(part, object, count) for part in key_parts]
        cells = key_cells(parts, self._seeds, self._width).reshape(
            len(self._slots), self._depth, -1
        )
        estimates = np.stack(grids)[
            np.asarray(owners),
            np.arange(len(self._slots))[:, None, None],
            np.arange(self._depth)[:, None],
            cells,
        ].min(axis=1)
        columns = {self._pane_name: np.asarray(labels)}
        columns.update(zip(self._key_names, map(np.asarray, key_parts)))
        columns.update(zip(self._slots, estimates))
        return _filter_then_project(
            columns, count, self._having, self._outputs,
            self._output_names,
        )


def is_sliding(node: AnalyzedNode, variant: str) -> bool:
    """Whether ``variant`` of ``node`` reassembles windows: the FULL and
    SUPER sides of a windowed aggregation (SUB computes tumbling panes)."""
    return (
        node.kind is NodeKind.AGGREGATION
        and node.window is not None
        and variant in ("full", "super")
    )


def build_variant_kernel(node: AnalyzedNode, variant: str = "full"):
    """Factory: the kernel for an analyzed node under a plan variant.

    The seam the backend compiles every plan node through; every node
    has a kernel.
    """
    if variant == "sketch_sub":
        return ColumnarSketchSubOp(node)
    if variant == "sketch_super":
        return ColumnarSlidingOp(node, ColumnarSketchSuperOp(node))
    if not is_sliding(node, variant):
        return build_columnar_operator(node, variant)
    sub = build_columnar_operator(node, "sub") if variant == "full" else None
    return ColumnarSlidingOp(node, build_columnar_operator(node, "super"), sub)


def build_variant_operator(node: AnalyzedNode, variant: str = "full") -> Operator:
    """Factory: the row reference for an analyzed node — the §3.4 oracle's
    operator.

    The oracle runs every node FULL, so FULL is its only variant: a
    windowed aggregation is :class:`WindowAggregateOp`, every other node
    :func:`~repro.engine.operators.build_operator`'s operator.  SUB,
    SUPER, NULLPAD and the sketch pair are the runtime's, and have no
    row form.
    """
    if variant != "full":
        raise ValueError(f"the row reference has no {variant!r} variant")
    if node.kind is NodeKind.AGGREGATION and node.window is not None:
        return WindowAggregateOp(node)
    return build_operator(node)
