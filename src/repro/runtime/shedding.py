"""Query-aware load shedding: rank overflow rows by plan-derived value.

The blind :class:`~repro.runtime.flowcontrol.QueuePolicy` drop modes shed
by arrival order, so a dropped tuple that would have completed an open
join bucket costs a full output row while a tuple headed for a group that
can never pass its HAVING clause costs nothing.  The queue's fourth mode,
``QueuePolicy(capacity, "semantic")``, calls :meth:`ValueModel.shed`
whenever a host's backlog exceeds its capacity: it sheds the lowest-value
rows instead of the newest.  A row's value is derived from the analyzed
plan, per delivered query, for a whole queued batch at once with the
kernels' vectorizer (:mod:`repro.expr.vectorizer`):

- **selection gates** — a row a lineage-expressible WHERE between the
  source and the query rejects is provably worthless to that query;
- **HAVING feasibility** — for ``OR_AGGR(x) = c`` / ``AND_AGGR(x) = c``
  the model keeps each group's exact running fold over *delivered* rows;
  OR only sets bits and AND only clears them, so a group whose
  prospective fold already disagrees with ``c`` can never pass.
  ``COUNT(*) >= k`` is graded by a small
  :class:`~repro.engine.sketches.CountMinSketch` of delivered support;
- **open join buckets** — a row whose join key is buffered on the
  *opposite* side of a streaming join would complete a half-filled
  bucket.  The queue asks the executor for those key sets
  (:meth:`~repro.engine.streaming.StreamingJoin.value_hints`) when a host
  overflows, at most once per step;
- **doomed groups** — once a row of a group is lost, the group's output
  is already wrong, so its other rows are worth nothing: shedding
  concentrates there, sacrificing whole groups to keep the others
  byte-exact ("most groups exactly right", not "every group slightly
  wrong").

Groups are identified by the distinct keys of a batch only
(:func:`~repro.engine.columnar.distinct_keys`); the one per-row loop left
is the greedy selection, one heap pop per shed row.  The model reads only
driver-side state and what it asks of the executor between steps, so the
ranking is byte-identical across execution modes by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..distopt.plan_ir import DistKind, DistributedPlan
from ..engine.columnar import ColumnBatch, distinct_keys
from ..engine.sketches import CountMinSketch
from ..expr import expressions as xp
from ..expr.vectorizer import (
    materialize,
    vectorize_expr,
    vectorize_key,
    vectorize_predicate,
)
from ..gsql.analyzer import AnalyzedNode, NodeKind, _substitute_lineage
from ..plan.dag import QueryDag

#: Component score of a join-side row that does *not* complete an open
#: bucket (it may still open one that a later row completes).  Must stay
#: strictly between 0 (provably worthless) and 1 (provably valuable).
OPEN_BUCKET_MISS = 0.4

#: Component score of a row whose group *could* still fold to a bit
#: pattern HAVING constant but has not yet — it only pays off if the
#: right partner rows arrive later, unlike a row whose prospective fold
#: already equals the pattern exactly.
PARTIAL_FOLD = 0.6

#: Accuracy of the per-group support sketch backing count-threshold
#: HAVING feasibility.  Fixed (and seeded) so the ranking is a pure
#: function of the delivered rows.
SKETCH_EPSILON = 0.005
SKETCH_DELTA = 0.01
SKETCH_SEED = 7

#: :func:`~repro.engine.columnar.distinct_keys` of one batch:
#: ``(order, starts, inverse, distinct)``.
Groups = Tuple[np.ndarray, np.ndarray, np.ndarray, List[tuple]]

#: Per delivered join: the join keys buffered on its (left, right) side.
Buckets = Dict[str, Tuple[Set[tuple], Set[tuple]]]


# -- plan introspection ----------------------------------------------------------


def _column_lineage(node: AnalyzedNode) -> Dict[str, Optional[xp.ScalarExpr]]:
    """Each output column's value over base attrs (None when opaque)."""
    return {column.name: column.lineage for column in node.columns}


def _base_gate(
    where: Optional[xp.ScalarExpr], child: AnalyzedNode
) -> List[Callable]:
    """A node's WHERE as base-row mask programs: none when absent or
    not expressible over base attrs."""
    if where is not None:
        lineage = _substitute_lineage(where, _column_lineage(child))
        if lineage is not None:
            return [vectorize_predicate(lineage)]
    return []


class _BitFoldChecker:
    """Provable HAVING feasibility for ``OR_AGGR/AND_AGGR(x) = c``.

    The fold is monotone — OR only sets bits, AND only clears them — so
    once the running fold over delivered rows (plus the candidate row)
    disagrees with ``c`` on a decided bit, the group can never pass.
    """

    __slots__ = ("fold", "identity", "arg", "pattern", "state")

    def __init__(self, func: str, arg: Callable, pattern: int):
        self.fold = np.bitwise_or if func == "OR_AGGR" else np.bitwise_and
        # The fold of no rows: no bits for OR, every bit for AND.
        self.identity = 0 if func == "OR_AGGR" else -1
        self.arg = arg
        self.pattern = pattern
        self.state: Dict[tuple, int] = {}

    def _values(self, columns, length: int) -> np.ndarray:
        return materialize(self.arg(columns, length), length).astype(np.int64)

    def observe(self, columns, length: int, groups: Groups) -> None:
        order, starts, _, distinct = groups
        folded = self.fold.reduceat(self._values(columns, length)[order], starts)
        for key, value in zip(distinct, folded.tolist()):
            self.state[key] = int(self.fold(self.state.get(key, self.identity), value))

    def score(self, columns, length: int, groups: Groups) -> np.ndarray:
        _, _, inverse, distinct = groups
        state = [self.state.get(key, self.identity) for key in distinct]
        fold = self.fold(
            np.asarray(state, dtype=np.int64)[inverse], self._values(columns, length)
        )
        # A bit the fold has moved off its identity can never move back.
        dead = ((fold ^ self.identity) & (fold ^ self.pattern)) != 0
        return np.where(dead, 0.0, np.where(fold == self.pattern, 1.0, PARTIAL_FOLD))


class _CountChecker:
    """Sketch-estimated HAVING support for ``COUNT(*) >= k`` clauses.

    Counts only grow, so no group is provably dead; the score grades
    groups by how close their delivered support is to the threshold.
    """

    __slots__ = ("needed", "sketch")

    def __init__(self, needed: int):
        self.needed = needed
        self.sketch = CountMinSketch.from_error(
            SKETCH_EPSILON, SKETCH_DELTA, seed=SKETCH_SEED
        )

    def observe(self, columns, length: int, groups: Groups) -> None:
        _, starts, _, distinct = groups
        for key, count in zip(distinct, np.diff(starts, append=length).tolist()):
            self.sketch.update(key, count)

    def score(self, columns, length: int, groups: Groups) -> np.ndarray:
        _, _, inverse, distinct = groups
        return np.asarray([
            min(1.0, (self.sketch.estimate(key) + 1) / self.needed)
            for key in distinct
        ])[inverse]


def _having_checker(dag: QueryDag, node: AnalyzedNode):
    """Build a feasibility checker from a supported HAVING shape.

    Supported: ``<agg slot> = const`` over a bit fold and
    ``COUNT >= / > const``; anything else returns None (neutral — never
    shed on an unprovable clause).  Predicates arrive as the analyzer's
    truth-valued ``Func`` nodes (EQ/GE/GT/...).
    """
    having = node.having
    if not isinstance(having, xp.Func) or len(having.args) != 2:
        return None
    op = having.name
    left, right = having.args
    if isinstance(left, xp.Attr) and isinstance(right, xp.Const):
        attr, const = left, right
    elif isinstance(right, xp.Attr) and isinstance(left, xp.Const):
        attr, const = right, left
        op = {"GT": "LT", "LT": "GT", "GE": "LE", "LE": "GE"}.get(op, op)
    else:
        return None
    call = next((c for c in node.aggregates if c.slot == attr.name), None)
    if call is None:
        return None
    if call.func in ("OR_AGGR", "AND_AGGR") and op == "EQ":
        if call.arg is None:
            return None
        child = dag.node(node.inputs[0])
        arg = _substitute_lineage(call.arg, _column_lineage(child))
        if arg is None:
            return None
        return _BitFoldChecker(call.func, vectorize_expr(arg), int(const.value))
    if call.func == "COUNT" and op in ("GE", "GT"):
        needed = int(const.value) + (1 if op == "GT" else 0)
        if needed > 1:
            return _CountChecker(needed)
    return None


@dataclass
class _Interest:
    """One delivered root query's stake in one source stream's rows.

    A row the ``gates`` reject is worthless to ``root``.  A row that
    passes feeds one group of each aggregation named in ``groups`` and
    shares that group's doom.  ``checker`` grades an aggregation's
    HAVING; ``join`` is ``(query, left key, right key)`` for a delivered
    join, each key a vectorized program over base attrs or None.  With
    neither, every passing row is fully valuable.
    """

    root: str
    stream: str
    gates: List[Callable]
    groups: Sequence[str] = ()
    checker: object = None
    join: Optional[tuple] = None

    def passes(self, columns, length: int) -> np.ndarray:
        mask = np.ones(length, dtype=bool)
        for gate in self.gates:
            mask &= gate(columns, length)
        return mask

    def score(self, columns, length, groups: List[Groups], buckets: Buckets):
        """This interest's score per row, gates and doom aside."""
        if self.checker is not None:
            return self.checker.score(columns, length, groups[0])
        if self.join is None:
            return np.ones(length)
        query, left_key, right_key = self.join
        open_left, open_right = buckets.get(query, ((), ()))
        score = np.full(length, OPEN_BUCKET_MISS)
        for key_fn, opposite in ((left_key, open_right), (right_key, open_left)):
            if key_fn is not None and opposite:
                _, _, inverse, distinct = distinct_keys(key_fn(columns, length), length)
                hit = np.asarray([key in opposite for key in distinct])
                score[hit[inverse]] = 1.0
        return score


class ValueModel:
    """Plan-derived row values for one run's semantic shedding."""

    def __init__(self, dag: QueryDag, plan: DistributedPlan):
        self._dag = dag
        self._interests: List[_Interest] = []
        #: Aggregation name -> its group key over base attrs.
        self._group_keys: Dict[str, Callable] = {}
        #: Aggregation name -> keys of groups with a lost row: their outputs
        #: are already corrupted, so their other rows are worthless.
        self._doomed: Dict[str, Set[tuple]] = {}
        for name in sorted(plan.delivery):
            self._descend(name, dag.node(name), [])
        joins = {i.join[0] for i in self._interests if i.join is not None}
        #: Plan nodes whose buffered join keys are the open buckets
        #: (node id -> query).
        self._join_nodes: Dict[str, str] = {
            node.node_id: node.query
            for node in plan.topological()
            if node.kind is DistKind.OP and node.query in joins
        }

    # -- construction ---------------------------------------------------------

    def _group_of(self, node: AnalyzedNode) -> Optional[str]:
        """Register an aggregation's group key over base attrs; None for
        an opaque key or a node that does not group."""
        lineages = [group.lineage for group in node.group_by]
        if not lineages or any(lineage is None for lineage in lineages):
            return None
        if node.name not in self._group_keys:
            self._group_keys[node.name] = vectorize_key(lineages)
            self._doomed[node.name] = set()
        return node.name

    def _base_stream(self, node: AnalyzedNode) -> Optional[str]:
        """The single source stream feeding ``node`` (None if several)."""
        streams = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current.kind is NodeKind.SOURCE:
                streams.add(current.name)
                continue
            stack.extend(self._dag.node(name) for name in current.inputs)
        return streams.pop() if len(streams) == 1 else None

    def _descend(self, root: str, node: AnalyzedNode, gates: List) -> None:
        """Walk from a delivered root toward its sources, anchoring one
        interest per reachable source stream."""
        if node.kind is NodeKind.UNION:
            for name in node.inputs:
                self._descend(root, self._dag.node(name), list(gates))
            return
        if node.kind is NodeKind.SELECTION:
            child = self._dag.node(node.inputs[0])
            self._descend(root, child, gates + _base_gate(node.where, child))
            return
        stream = self._base_stream(node)
        group = self._group_of(node)
        if stream is None:
            return
        if group is not None:
            gates = gates + _base_gate(node.where, self._dag.node(node.inputs[0]))
            checker = _having_checker(self._dag, node)
            self._interests.append(
                _Interest(root, stream, gates, (group,), checker=checker)
            )
        elif node.kind is NodeKind.JOIN:
            keys, groups = [], []
            for name, exprs in (
                (node.inputs[0], [eq.left for eq in node.equalities]),
                (node.inputs[1], [eq.right for eq in node.equalities]),
            ):
                child = self._dag.node(name)
                mapping = _column_lineage(child)
                lineages = [_substitute_lineage(expr, mapping) for expr in exprs]
                keys.append(
                    vectorize_key(lineages)
                    if lineages and all(line is not None for line in lineages)
                    else None
                )
                group = self._group_of(child)
                if group is not None:
                    groups.append(group)
            self._interests.append(
                _Interest(root, stream, gates, groups, join=(node.name, *keys))
            )
        else:
            # A source, or a node the model cannot reason about: every
            # gate-passing row is fully valuable.
            self._interests.append(_Interest(root, stream, gates))

    # -- state outside the queue ----------------------------------------------

    def join_buckets(self, executor) -> Buckets:
        """Ask ``executor`` for the open join buckets: per delivered join,
        the join keys its plan nodes buffer on each side now.

        Several plan nodes of one partitioned join merge by union
        (membership is all that is ever asked of the sets, so order never
        matters).  A plan without a delivered join asks nothing.
        """
        buckets: Buckets = {}
        if self._join_nodes:
            hints = executor.value_hints(sorted(self._join_nodes))
            for node_id, (left, right) in hints.items():
                query = self._join_nodes[node_id]
                open_left, open_right = buckets.setdefault(query, (set(), set()))
                open_left.update(left)
                open_right.update(right)
        return buckets

    def _groups(self, name: str, columns, length: int, cache) -> Groups:
        """The distinct keys of aggregation ``name`` over one batch."""
        if name not in cache:
            keys = self._group_keys[name](columns, length)
            cache[name] = distinct_keys(keys, length)
        return cache[name]

    def observe_delivered(self, stream: str, batch: ColumnBatch) -> None:
        """Fold delivered rows into the running HAVING-feasibility state."""
        for interest in self._interests:
            if interest.stream != stream or interest.checker is None:
                continue
            mask = interest.passes(batch.columns, len(batch))
            rows = batch if mask.all() else batch.select(mask)
            if len(rows):
                (name,) = interest.groups
                groups = self._groups(name, rows.columns, len(rows), {})
                interest.checker.observe(rows.columns, len(rows), groups)

    def mark_lost(self, stream: str, batch: ColumnBatch) -> None:
        """Rows lost outside the shed path (``skip`` faults) corrupt
        their groups exactly like shed rows: doom them."""
        length = len(batch)
        cache: Dict[str, Groups] = {}
        for interest in self._interests:
            if interest.stream != stream:
                continue
            mask = interest.passes(batch.columns, length)
            for name in interest.groups:
                _, _, inverse, distinct = self._groups(
                    name, batch.columns, length, cache
                )
                lost = np.unique(inverse[mask]).tolist()
                self._doomed[name].update(distinct[index] for index in lost)

    # -- the shed selector ----------------------------------------------------

    def shed(self, queue, excess: int, buckets: Buckets) -> Tuple[int, Dict[str, int]]:
        """Shed ``excess`` rows from a host's queued ``_Entry`` objects,
        lowest value first (ties newest first), mutating their batches in
        place; ``buckets`` is :meth:`join_buckets`'s answer for the step.

        Returns the shed count and, per delivered root, how many shed rows
        still had value for it when they were shed.  Each stream's backlog
        is scored as arrays: per interest a score and, per aggregation it
        feeds, a group id (0 for none).  Selection is greedy with doom
        feedback: a shed row dooms its groups, which can only *lower*
        other rows' values, so a lazy reevaluation heap is exact — a
        popped row whose value is stale is re-scored and pushed back.
        """
        entries = list(queue)
        sizes = [len(entry.batch) for entry in entries]
        total = sum(sizes)
        excess = min(excess, total)
        if excess <= 0:
            return 0, {}
        streams: Dict[str, List[Tuple[ColumnBatch, np.ndarray]]] = {}
        for entry, start in zip(entries, np.cumsum([0] + sizes).tolist()):
            rows = np.arange(start, start + len(entry.batch))
            streams.setdefault(entry.stream, []).append((entry.batch, rows))
        scores = [np.zeros(total) for _ in self._interests]
        slots = [
            [np.zeros(total, dtype=np.intp) for _ in interest.groups]
            for interest in self._interests
        ]
        owners: List[Optional[Tuple[str, tuple]]] = [None]
        doomed = [False]
        bases: Dict[str, int] = {}
        for stream, pieces in streams.items():
            batch = ColumnBatch.concat([piece for piece, _ in pieces])
            where = np.concatenate([rows for _, rows in pieces])
            columns, length = batch.columns, len(batch)
            cache: Dict[str, Groups] = {}
            for index, interest in enumerate(self._interests):
                if interest.stream != stream:
                    continue
                mask = interest.passes(columns, length)
                groups = [
                    self._groups(name, columns, length, cache)
                    for name in interest.groups
                ]
                score = interest.score(columns, length, groups, buckets)
                scores[index][where] = np.where(mask, score, 0.0)
                for slot, name, (_, _, inverse, distinct) in zip(
                    slots[index], interest.groups, groups
                ):
                    if name not in bases:  # one stream feeds each group
                        bases[name] = len(owners)
                        owners.extend((name, key) for key in distinct)
                        doomed.extend(key in self._doomed[name] for key in distinct)
                    slot[where] = np.where(mask, bases[name] + inverse, 0)
        # Values as a row-at-a-time sum would add them: components in
        # interest order, each adding its score unless zero or doomed.
        flags = np.asarray(doomed)
        values = np.zeros(total)
        components = []
        for interest, score, ids in zip(self._interests, scores, slots):
            live = score != 0
            for slot in ids:
                live &= ~flags[slot]
            values = values + np.where(live, score, 0.0)
            components.append(
                (interest.root, score.tolist(), [slot.tolist() for slot in ids])
            )

        def live(position: int) -> List[Tuple[str, float]]:
            """(root, score) of each component still valuing the row."""
            return [
                (root, score[position])
                for root, score, ids in components
                if score[position]
                and not any(doomed[slot[position]] for slot in ids)
            ]

        # Heap of (value, -position, position): position breaks ties newest
        # first and makes the ordering total, so heap order is deterministic.
        heap = list(zip(values.tolist(), range(0, -total, -1), range(total)))
        heapq.heapify(heap)
        stamps = [0] * total
        version = 0
        kept = np.ones(total, dtype=bool)
        charged: Dict[str, int] = {}
        for _ in range(excess):
            while True:
                value, _, position = heapq.heappop(heap)
                if stamps[position] == version:
                    break
                stamps[position] = version
                current = 0.0
                for _, score in live(position):
                    current += score
                if current >= value:
                    break
                heapq.heappush(heap, (current, -position, position))
            kept[position] = False
            roots = [root for root, _ in live(position)]
            for _, _, ids in components:
                for slot in ids:
                    if slot[position]:
                        doomed[slot[position]] = True
            if roots:
                version += 1
                for root in roots:
                    charged[root] = charged.get(root, 0) + 1
        for owner, lost in zip(owners[1:], doomed[1:]):
            if lost:
                self._doomed[owner[0]].add(owner[1])
        # Rebuild each entry's batch with its surviving rows, in order.
        start = 0
        for entry, size in zip(entries, sizes):
            keep = kept[start:start + size]
            if not keep.all():
                entry.batch = entry.batch.select(keep)
            start += size
        return excess, charged
