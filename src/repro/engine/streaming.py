"""Streaming (epoch-at-a-time) execution over the pure batch operators.

The paper's semantics are tumbling-window: every query result is the
union of per-epoch results, with the temporal attribute in every group
and join key (§3.1).  A one-shot run exploits this by processing a
whole trace at once; this module provides the inverse exploitation —
processing one epoch's tuples per step while keeping per-node state
alive across steps, so memory stays bounded by an epoch but the emitted
union (and every tuple count the simulator charges for) is identical.

The mechanism is watermark-driven buffering built on *the same pure
operators* a one-shot run uses, over the same one batch type
(:class:`~repro.engine.columnar.ColumnBatch` in, ``ColumnBatch`` out):

* A **watermark** is a dict ``{column: B}`` asserting that every row a
  node emits in any *later* step satisfies ``row[column] >= B``.
  Sources emit ``{epoch_column: next_epoch}`` (``inf`` once drained);
  downstream nodes derive their own watermark with interval arithmetic
  (:func:`lower_bound`) over their output expressions.
* A stateful node (aggregation, join) buffers its raw input and, each
  step, hands the *completed* prefix — rows whose temporal key can no
  longer gain companions — to the ordinary batch operator.  Because the
  temporal key is part of the group/join key, the completed prefix
  contains only whole groups / whole join buckets, so the per-step
  outputs are exactly a partition of the one-shot output.
* A windowed aggregation (``RANGE``/``SLIDE``, and the sketch SUPER)
  buffers the same way but releases by *window*: each step hands every
  retained row plus the newly complete window ends to the kernel, and
  prunes only the panes no later window reads.
* Stateless nodes (selection, merge, union, NULLPAD) simply run their
  operator on each step's batch.

A final *flush* step drains every buffer regardless of watermarks,
covering nodes whose temporal bound is not derivable (e.g. downstream
of a join, whose output watermark is unknown).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..expr.expressions import Attr, Binary, Const, ScalarExpr
from ..expr.vectorizer import materialize, vectorize_expr
from ..gsql.analyzer import AnalyzedNode
from .columnar import ColumnBatch

Number = Union[int, float]
#: Maps column name -> inclusive lower bound on that column in all rows
#: the node will emit in later steps.  Missing columns are unbounded.
Watermark = Dict[str, Number]


def lower_bound(expr: ScalarExpr, bounds: Watermark) -> Optional[Number]:
    """Greatest derivable lower bound of ``expr`` under attribute bounds.

    ``bounds[name] = B`` asserts every relevant row satisfies
    ``row[name] >= B``.  Only operators monotone non-decreasing in the
    bounded attribute propagate a bound: ``+`` of two bounded operands,
    and ``-``/``*``/``/`` by a positive constant (``/`` floors for ints,
    matching the evaluator).  Everything else — masks, modulo, unary
    negation, functions — returns None (unknown).  ``math.inf`` bounds
    propagate, marking a drained stream.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Attr):
        return bounds.get(expr.name)
    if isinstance(expr, Binary):
        if expr.op == "+":
            left = lower_bound(expr.left, bounds)
            right = lower_bound(expr.right, bounds)
            if left is None or right is None:
                return None
            return left + right
        if expr.op in ("-", "*", "/") and isinstance(expr.right, Const):
            left = lower_bound(expr.left, bounds)
            value = expr.right.value
            if left is None:
                return None
            if expr.op == "-":
                return left - value
            if not isinstance(value, (int, float)) or value <= 0:
                return None
            if expr.op == "*":
                return left * value
            if isinstance(left, int) and isinstance(value, int):
                return left // value  # evaluator's integer floor division
            return left / value
    return None


def merge_watermarks(watermarks: Sequence[Watermark]) -> Watermark:
    """Watermark of a stream union: per-column minimum over all inputs,
    keeping only columns bounded by *every* input."""
    if not watermarks:
        return {}
    common = set(watermarks[0])
    for wm in watermarks[1:]:
        common &= set(wm)
    return {name: min(wm[name] for wm in watermarks) for name in common}


def mapped_watermark(
    outputs: Sequence[Tuple[str, ScalarExpr]]
) -> Callable[[Sequence[Watermark]], Watermark]:
    """Watermark function for a single-input row-wise node: bound each
    output column by its defining expression over the input bounds."""

    def compute(watermarks: Sequence[Watermark]) -> Watermark:
        (bounds,) = watermarks
        return _bound_outputs(outputs, bounds)

    return compute


def unknown_watermark(watermarks: Sequence[Watermark]) -> Watermark:
    return {}


def _bound_outputs(
    outputs: Sequence[Tuple[str, ScalarExpr]], bounds: Watermark
) -> Watermark:
    result: Watermark = {}
    for name, expr in outputs:
        bound = lower_bound(expr, bounds)
        if bound is not None:
            result[name] = bound
    return result


# -- buffers -------------------------------------------------------------------


def take_prefix(
    batch: ColumnBatch, count: int
) -> Tuple[ColumnBatch, ColumnBatch]:
    """Split a batch into its first ``count`` rows and the remainder.

    Order is preserved (both halves are zero-copy slices), so a
    flow-control queue can deliver a prefix of an entry and keep the
    tail queued without perturbing the within-partition row order that
    round-robin parity relies on.
    """
    length = len(batch)
    count = max(0, min(count, length))
    return batch.slice(0, count), batch.slice(count, length)


#: A pending batch's temporal keys with their extremes: ``(keys, low, high)``.
_Keys = Tuple[np.ndarray, Number, Number]


def _extremes(keys: np.ndarray) -> _Keys:
    return keys, np.minimum.reduce(keys), np.maximum.reduce(keys)


class ColumnBuffer:
    """Retained rows, batch by batch, plus a vectorized temporal-key extractor.

    Each pending batch is keyed once — on the first release that needs its
    keys — and keeps its key array and the array's extremes.  A release
    hands over whole batches below the bound, keeps whole batches at or
    above it, and splits only a batch that straddles it, so a row retained
    for *k* steps is keyed once and copied at most once.  Released rows
    come out in buffer order, and retained rows stay in it.  The row count
    is a running counter.
    """

    def __init__(self, key_fn: Optional[Callable]):
        self._key_fn = key_fn
        self._pending: List[ColumnBatch] = []
        self._keys: List[Optional[_Keys]] = []
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def add(self, batch: ColumnBatch) -> None:
        if batch.length:
            self._pending.append(batch)
            self._keys.append(None)
            self._rows += batch.length

    def merged(self) -> ColumnBatch:
        """The retained rows as one batch, in buffer order (kept)."""
        if not self._pending:
            return ColumnBatch({}, 0)
        if len(self._pending) > 1:
            # Each batch keyed once, then the keys merged along with it.
            self._keys = [
                None
                if self._key_fn is None
                else _extremes(
                    np.concatenate(
                        [self._keyed(index)[0] for index in range(len(self._pending))]
                    )
                )
            ]
            self._pending = [ColumnBatch.concat(self._pending)]
        return self._pending[0]

    def keys(self) -> np.ndarray:
        """The temporal key of every row of :meth:`merged`, in its order."""
        if not self._pending:
            return np.empty(0, dtype=np.int64)
        self.merged()
        return self._keyed(0)[0]

    def _keyed(self, index: int) -> _Keys:
        keys = self._keys[index]
        if keys is None:
            batch = self._pending[index]
            length = len(batch)
            keys = self._keys[index] = _extremes(
                materialize(self._key_fn(batch.columns, length), length)
            )
        return keys

    def take_below(self, bound: Number) -> ColumnBatch:
        """Remove and return the rows whose temporal key is < ``bound``."""
        if bound == math.inf:
            return self.drain()
        released: List[ColumnBatch] = []
        pending: List[ColumnBatch] = []
        pending_keys: List[Optional[_Keys]] = []
        for index, batch in enumerate(self._pending):
            keys, low, high = self._keyed(index)
            if high < bound:
                released.append(batch)
            elif low >= bound:
                pending.append(batch)
                pending_keys.append(self._keys[index])
            else:
                below = keys < bound
                above = ~below
                released.append(batch.select(below))
                pending.append(batch.select(above))
                pending_keys.append(_extremes(keys[above]))
        if not released:
            return ColumnBatch({}, 0)
        self._pending, self._keys = pending, pending_keys
        taken = released[0] if len(released) == 1 else ColumnBatch.concat(released)
        self._rows -= taken.length
        return taken

    def drain(self) -> ColumnBatch:
        batch = self.merged()
        self._pending, self._keys = [], []
        self._rows = 0
        return batch


# -- streaming node wrappers ---------------------------------------------------


class StreamingNode:
    """One distributed-plan node kept alive across epoch steps.

    Wrappers take a *compiled* operator — a kernel exposing the
    :class:`~repro.engine.columnar.ColumnarOperator` surface (``process``,
    ``empty``, and ``process_window`` on windowed kernels) — and both
    consume and emit :class:`ColumnBatch`es.
    """

    def step(
        self,
        inputs: Sequence[ColumnBatch],
        watermarks: Sequence[Watermark],
        flush: bool,
    ) -> Tuple[ColumnBatch, Watermark]:
        """Consume this step's input batches; return (output, watermark).

        ``watermarks[i]`` bounds all *future* rows of input ``i``.  With
        ``flush`` set, every buffer drains regardless of watermarks and
        the returned watermark is meaningless (nothing follows a flush).
        """
        raise NotImplementedError

    def buffered_rows(self) -> int:
        """Rows currently held back — for memory-bound assertions."""
        return 0


class StatelessStreamingNode(StreamingNode):
    """Row-wise node: run the pure operator on each step's batch as-is."""

    def __init__(
        self,
        operator,
        watermark_fn: Callable[[Sequence[Watermark]], Watermark],
    ):
        self._operator = operator
        self._watermark_fn = watermark_fn

    def step(self, inputs, watermarks, flush):
        return self._operator.process(*inputs), self._watermark_fn(watermarks)


class ReleaseGroup:
    """One buffer and one release decision per step for sibling aggregates.

    Aggregates that read the same input node and release on the same
    temporal expression would buffer identical rows and compute identical
    lower bounds.  They share one group instead: the first member stepped
    in a step adds the input batch, evaluates :func:`lower_bound` once and
    takes the ready rows; every other member gets the same answer.  The
    group counts its members' calls, so each member must step exactly once
    per step — which a node table does.
    """

    def __init__(self, key_fn: Optional[Callable], expr: Optional[ScalarExpr]):
        self.buffer = ColumnBuffer(key_fn)
        self.expr = expr
        self.members = 1
        self._asked = 0
        self._answer: Tuple[Optional[ColumnBatch], Optional[Number]] = (None, None)

    def release(
        self, batch: ColumnBatch, bounds: Watermark, flush: bool
    ) -> Tuple[Optional[ColumnBatch], Optional[Number]]:
        """This step's ``(ready rows, lower bound)``; either may be None
        (nothing releasable, or no derivable bound)."""
        if self._asked == 0:
            self._answer = self._decide(batch, bounds, flush)
        self._asked += 1
        if self._asked == self.members:
            self._asked = 0
        return self._answer

    def _decide(self, batch, bounds, flush):
        buffer = self.buffer
        buffer.add(batch)
        if flush:
            return buffer.drain(), None
        if self.expr is None:
            return None, None
        low = lower_bound(self.expr, bounds)
        if low is None:
            return None, None
        return buffer.take_below(low), low


class StreamingAggregate(StreamingNode):
    """Buffer-and-release wrapper around a pure aggregation operator.

    Rows are buffered raw; once the input watermark pushes the temporal
    group-by expression's lower bound to ``L``, all buffered rows with
    temporal key < L form *complete* groups (the temporal key is part of
    the group key, so groups never straddle the boundary) and are handed
    to the ordinary batch operator.  Without a temporal group-by column
    (a global aggregate) everything waits for the flush.  The buffer and
    the release decision live in a :class:`ReleaseGroup`, which sibling
    aggregates may share (:func:`share_releases`); a step with nothing to
    release answers with the operator's cached empty batch and never
    calls the kernel.
    """

    def __init__(
        self,
        operator,
        key_fn: Optional[Callable],
        temporal_name: Optional[str],
        temporal_expr: Optional[ScalarExpr],
        outputs: Sequence[Tuple[str, ScalarExpr]],
    ):
        self._operator = operator
        self._release = ReleaseGroup(key_fn, temporal_expr)
        self._temporal_name = temporal_name
        # Future groups all have temporal key >= low, so only outputs
        # computed from the temporal column alone can be bounded.  (Other
        # group-by columns of retained rows may predate the current input
        # bounds.)  Any other output's bound is None: filter them once.
        self._outputs = [
            (name, expr)
            for name, expr in outputs
            if expr.attrs() <= {temporal_name}
        ]

    @property
    def release_key(self) -> Optional[ScalarExpr]:
        """The temporal expression this node releases on (None: flush only)."""
        return self._release.expr

    def join_release(self, sibling: "StreamingAggregate") -> None:
        """Share ``sibling``'s buffer and release decision from now on."""
        self._release = sibling._release
        self._release.members += 1

    def buffered_rows(self) -> int:
        return len(self._release.buffer)

    def step(self, inputs, watermarks, flush):
        (batch,) = inputs
        (bounds,) = watermarks
        ready, low = self._release.release(batch, bounds, flush)
        watermark = (
            {}
            if low is None
            else _bound_outputs(self._outputs, {self._temporal_name: low})
        )
        if ready is None or not ready.length:
            return self._operator.empty(), watermark
        return self._operator.process(ready), watermark


def share_releases(siblings: Sequence[Tuple[str, StreamingNode]]) -> None:
    """Group ``(input node id, streaming node)`` pairs by input and release
    expression; every aggregate after the first in a group joins the
    first's :class:`ReleaseGroup`.  Nodes without a ``release_key`` (or
    with a None one) stay alone."""
    leaders: Dict[Tuple[str, ScalarExpr], StreamingNode] = {}
    for input_id, snode in siblings:
        key = getattr(snode, "release_key", None)
        if key is None:
            continue
        leader = leaders.setdefault((input_id, key), snode)
        if leader is not snode:
            snode.join_release(leader)


class StreamingWindowedAggregate(StreamingNode):
    """Buffer-and-release wrapper for window-labelled aggregation variants.

    Wraps a compiled operator exposing ``process_window(batch, ends)``
    (the sliding FULL/SUPER and SKETCH_SUPER kernels) and retains its
    input in a :class:`ColumnBuffer` keyed on the pane expression.  A
    window labelled by end pane ``e`` is complete once the input
    watermark proves every future row's pane index is ``> e``; each step
    hands the newly complete window labels — in ascending order, strictly
    after the last emitted label — to the pure operator together with
    *all* retained rows.  Rows are pruned only once the last window that
    can read their pane has emitted (panes participate in up to
    ``window/slide`` windows), so per-step outputs are exactly a
    partition of the one-shot output.
    """

    def __init__(
        self,
        operator,
        spec,
        pane_expr: ScalarExpr,
        temporal_name: str,
        outputs: Sequence[Tuple[str, ScalarExpr]],
    ):
        self._operator = operator
        self._spec = spec
        self._pane_expr = pane_expr
        self._temporal_name = temporal_name
        self._outputs = list(outputs)
        self._buffer = ColumnBuffer(vectorize_expr(pane_expr))
        self._last_end: Optional[int] = None

    def buffered_rows(self) -> int:
        return len(self._buffer)

    def step(self, inputs, watermarks, flush):
        (batch,) = inputs
        self._buffer.add(batch)
        if flush:
            ends = self._complete_ends(math.inf)
            retained = self._buffer.drain()
            if not ends:
                return self._operator.empty(), {}
            return self._operator.process_window(retained, ends), {}
        (bounds,) = watermarks
        low = lower_bound(self._pane_expr, bounds)
        if low is None:
            return self._operator.empty(), {}
        ends = self._complete_ends(low)
        if ends:
            output = self._operator.process_window(self._buffer.merged(), ends)
            self._last_end = ends[-1]
            # The next window starts at last_end + slide - window + 1;
            # older panes can never be read again.
            self._buffer.take_below(
                self._last_end
                + self._spec.slide_panes
                - self._spec.window_panes
                + 1
            )
        else:
            output = self._operator.empty()
        # Future window labels are incomplete now (>= low) and strictly
        # after the last emitted label on the slide-aligned grid.
        next_end = (
            low
            if self._last_end is None
            else max(low, self._last_end + self._spec.slide_panes)
        )
        watermark = _bound_outputs(
            self._outputs, {self._temporal_name: next_end}
        )
        return output, watermark

    def _complete_ends(self, low: Number) -> List[int]:
        """Window ends over the retained panes that are complete below
        ``low`` and not yet emitted, ascending."""
        panes = self._buffer.keys()
        if len(panes) == 0:
            return []
        ends: List[int] = []
        for end in self._spec.window_ends_covering(np.unique(panes).tolist()):
            if end >= low:
                break
            if self._last_end is None or end > self._last_end:
                ends.append(end)
        return ends


class StreamingJoin(StreamingNode):
    """Buffer-and-release wrapper around a pure join operator.

    Both sides buffer until the temporal equality's lower bound passes a
    key value; the rows below the bound on *both* sides then join as one
    batch.  Matches cannot cross temporal-key values, so inner matches
    and outer-join padding decided inside a released bucket are final.
    Joins emit no watermark — in the workload catalogs they are plan
    roots, and anything downstream drains at the flush.

    Both sides buffer columnar whatever the operator is inside; the
    temporal key always vectorizes (anything the evaluator compiles,
    the vectorizer lowers).
    """

    def __init__(self, operator, node: AnalyzedNode):
        equality = next((eq for eq in node.equalities if eq.temporal), None)
        self._operator = operator
        self._left_expr = equality.left if equality is not None else None
        self._right_expr = equality.right if equality is not None else None
        self._left, self._right = (
            ColumnBuffer(vectorize_expr(expr) if expr is not None else None)
            for expr in (self._left_expr, self._right_expr)
        )

    def buffered_rows(self) -> int:
        return len(self._left) + len(self._right)

    def step(self, inputs, watermarks, flush):
        left_in, right_in = inputs
        self._left.add(left_in)
        self._right.add(right_in)
        if not self._left and not self._right:
            # Idle: nothing arrived and nothing waits (joins emit no
            # watermark, so there is nothing else to answer).
            return self._operator.empty(), {}
        if flush:
            left, right = self._left.drain(), self._right.drain()
        else:
            if self._left_expr is None:
                return self._operator.empty(), {}
            bounds_left, bounds_right = watermarks
            low_left = lower_bound(self._left_expr, bounds_left)
            low_right = lower_bound(self._right_expr, bounds_right)
            if low_left is None or low_right is None:
                return self._operator.empty(), {}
            bound = min(low_left, low_right)
            left = self._left.take_below(bound)
            right = self._right.take_below(bound)
        if not left.length and not right.length:
            return self._operator.empty(), {}
        return self._operator.process(left, right), {}
