"""Query-aware load shedding: rank overflow rows by plan-derived value.

The blind :class:`~repro.runtime.flowcontrol.QueuePolicy` drop modes shed
by arrival order, so a dropped tuple that would have completed an open
join bucket costs a full output row while a tuple headed for a group that
can never pass its HAVING clause costs nothing.  This module is the
overflow rule of the queue's fourth mode, ``QueuePolicy(capacity,
"semantic")``: a *value model* between the queue and the drop decision.

* :func:`shed_lowest_value` is what the ingest queue calls whenever its
  backlog exceeds the per-epoch capacity: shed the lowest-value rows
  instead of the newest (the capacity budget is delivered FIFO as usual).
* :class:`ValueModel` derives each queued row's value from the analyzed
  plan, per delivered query:

  - **selection gates** — lineage-expressible WHERE predicates between
    the source and the query; a row a gate rejects is provably worthless
    to that query (and the rare survivors of a highly selective
    predicate automatically rank high relative to the rejected mass);
  - **HAVING feasibility** — for bit-fold HAVING clauses
    (``OR_AGGR(x) = c`` / ``AND_AGGR(x) = c``) the model keeps the exact
    per-group running fold over *delivered* rows: OR only accumulates
    and AND only clears bits, so a group whose prospective fold already
    disagrees with ``c`` can provably never pass.  Count-threshold
    clauses (``COUNT(*) >= k``) are scored by a small
    :class:`~repro.engine.sketches.CountMinSketch` of delivered group
    support;
  - **open join buckets** — rows whose (lineage-derived) join key
    matches a key currently buffered on the *opposite* side of a
    streaming join would complete a half-filled bucket; the buffered key
    sets ride back from the executors as per-step value hints
    (:meth:`~repro.engine.streaming.StreamingJoin.value_hints`), so the
    decision is identical under in-process and forked execution;
  - **doomed groups** — once any row of a group has been shed, the
    group's output row is already corrupted relative to the unbounded
    run, so its remaining rows are worth nothing: shedding concentrates
    further drops there, sacrificing whole groups to keep the others
    byte-exact.  This is what turns per-query recall from "every group
    slightly wrong" into "most groups exactly right".

Everything the model consults lives driver-side (delivered rows, shed
decisions) or arrives as canonical per-step hints, so the ranking — and
therefore the output — is byte-identical across execution modes by
construction.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..distopt.plan_ir import DistKind, DistributedPlan
from ..engine.sketches import CountMinSketch
from ..expr import expressions as xp
from ..expr.evaluator import compile_expr, compile_key
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


# -- plan introspection ----------------------------------------------------------


def _column_lineage(node: AnalyzedNode) -> Dict[str, Optional[xp.ScalarExpr]]:
    """Each output column's value over base attrs (None when opaque)."""
    return {column.name: column.lineage for column in node.columns}


def _base_gate(
    where: Optional[xp.ScalarExpr], child: AnalyzedNode
) -> Optional[Callable]:
    """Compile a node's WHERE into a base-row predicate when expressible."""
    if where is None:
        return None
    lineage = _substitute_lineage(where, _column_lineage(child))
    if lineage is None:
        return None
    return compile_expr(lineage)


class _GroupTracker:
    """Shared per-aggregation doom registry: group keys (over base
    attrs) with at least one shed row — their outputs are already
    corrupted, so further rows of the same group are worthless."""

    __slots__ = ("key_fn", "doomed")

    def __init__(self, key_fn: Callable[[dict], tuple]):
        self.key_fn = key_fn
        self.doomed: Set[tuple] = set()


class _BitFoldChecker:
    """Provable HAVING feasibility for ``OR_AGGR/AND_AGGR(x) = c``.

    The fold is monotone — OR only sets bits, AND only clears them — so
    once the running fold over delivered rows (plus the candidate row)
    disagrees with ``c`` on a decided bit, the group can never pass.
    """

    __slots__ = ("func", "arg_fn", "pattern", "state")

    def __init__(self, func: str, arg_fn: Callable, pattern: int):
        self.func = func
        self.arg_fn = arg_fn
        self.pattern = pattern
        self.state: Dict[tuple, int] = {}

    def observe(self, key: tuple, row: dict) -> None:
        value = int(self.arg_fn(row))
        if self.func == "OR_AGGR":
            self.state[key] = self.state.get(key, 0) | value
        else:
            current = self.state.get(key)
            self.state[key] = value if current is None else current & value

    def score(self, key: tuple, row: dict) -> float:
        value = int(self.arg_fn(row))
        if self.func == "OR_AGGR":
            fold = self.state.get(key, 0) | value
            if fold & ~self.pattern:
                # Bits outside the pattern can never be cleared again.
                return 0.0
            return 1.0 if fold == self.pattern else PARTIAL_FOLD
        current = self.state.get(key)
        fold = value if current is None else current & value
        if self.pattern & ~fold:
            # Pattern bits already cleared can never be set again.
            return 0.0
        return 1.0 if fold == self.pattern else PARTIAL_FOLD


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

    def observe(self, key: tuple, row: dict) -> None:
        self.sketch.update(key)

    def score(self, key: tuple, row: dict) -> float:
        return min(1.0, (self.sketch.estimate(key) + 1) / self.needed)


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
        return _BitFoldChecker(call.func, compile_expr(arg), int(const.value))
    if call.func == "COUNT" and op in ("GE", "GT"):
        needed = int(const.value) + (1 if op == "GT" else 0)
        if needed > 1:
            return _CountChecker(needed)
    return None


class _Interest:
    """One delivered root query's stake in one source stream's rows."""

    __slots__ = ("root", "stream", "gates")

    def __init__(self, root: str, stream: str, gates: Sequence[Callable]):
        self.root = root
        self.stream = stream
        self.gates = list(gates)

    def passes(self, row: dict) -> bool:
        return all(gate(row) for gate in self.gates)

    def component(self, row: dict, model: "ValueModel"):
        """(score, tracker-key pairs) — or None when gated out."""
        raise NotImplementedError

    def observe(self, row: dict) -> None:
        """Fold one *delivered* row into the interest's running state."""


class _NeutralInterest(_Interest):
    """Delivered output the model cannot reason about (opaque lineage,
    raw source delivery): every gate-passing row is fully valuable."""

    def component(self, row, model):
        if not self.passes(row):
            return None
        return 1.0, ()


class _AggInterest(_Interest):
    """A delivered aggregation: doom tracking + HAVING feasibility."""

    __slots__ = ("tracker", "checker")

    def __init__(self, root, stream, gates, tracker, checker):
        super().__init__(root, stream, gates)
        self.tracker = tracker
        self.checker = checker

    def component(self, row, model):
        if not self.passes(row):
            return None
        key = self.tracker.key_fn(row)
        score = 1.0
        if self.checker is not None:
            score = self.checker.score(key, row)
        return score, ((self.tracker, key),)

    def observe(self, row):
        if self.checker is not None and self.passes(row):
            self.checker.observe(self.tracker.key_fn(row), row)


class _JoinInterest(_Interest):
    """A delivered join: open-bucket matching plus doom coupling with
    the per-side child aggregations (a shed row corrupts the group row
    the child would have fed into the join)."""

    __slots__ = ("query", "left_key", "right_key", "left_tracker",
                 "right_tracker")

    def __init__(self, root, stream, gates, query, left_key, right_key,
                 left_tracker, right_tracker):
        super().__init__(root, stream, gates)
        self.query = query
        self.left_key = left_key
        self.right_key = right_key
        self.left_tracker = left_tracker
        self.right_tracker = right_tracker

    def component(self, row, model):
        if not self.passes(row):
            return None
        open_left, open_right = model.open_buckets(self.query)
        score = 0.0
        keys: List[tuple] = []
        for key_fn, tracker, opposite in (
            (self.left_key, self.left_tracker, open_right),
            (self.right_key, self.right_tracker, open_left),
        ):
            side = OPEN_BUCKET_MISS
            if key_fn is not None and key_fn(row) in opposite:
                side = 1.0
            score = max(score, side)
            if tracker is not None:
                keys.append((tracker, tracker.key_fn(row)))
        return score, tuple(keys)


class _RowProfile:
    """One queued row's precomputed value components.

    Doom-set membership is the only thing that changes while a step's
    shed decisions are being made (delivered-state folds and open-bucket
    hints are frozen per step), so revaluation after a doom is pure set
    lookups — no expression re-evaluation.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        # [(root, score, ((tracker, key), ...)), ...]
        self.components = components

    def value(self) -> float:
        total = 0.0
        for _, score, keys in self.components:
            if score and not any(key in t.doomed for t, key in keys):
                total += score
        return total

    def doom(self) -> List[str]:
        """Shed this row: doom its groups; return the root queries that
        still valued it (the per-query shed attribution)."""
        charged = []
        for root, score, keys in self.components:
            if score and not any(key in t.doomed for t, key in keys):
                charged.append(root)
        for _, _, keys in self.components:
            for tracker, key in keys:
                tracker.doomed.add(key)
        return charged


class ValueModel:
    """Plan-derived row values for one run's semantic shedding."""

    def __init__(self, dag: QueryDag, plan: DistributedPlan):
        self._dag = dag
        self._interests: List[_Interest] = []
        self._trackers: Dict[str, _GroupTracker] = {}
        self._open: Dict[str, Tuple[frozenset, frozenset]] = {}
        self._version = 0
        for name in sorted(plan.delivery):
            self._descend(name, dag.node(name), [])
        join_queries = {
            interest.query
            for interest in self._interests
            if isinstance(interest, _JoinInterest)
        }
        #: Plan nodes whose buffered join keys the executors must report
        #: back each step (node id -> query name).
        self.hint_nodes: Dict[str, str] = {
            node.node_id: node.query
            for node in plan.topological()
            if node.kind is DistKind.OP and node.query in join_queries
        }

    # -- construction ---------------------------------------------------------

    def _tracker_for(self, node: AnalyzedNode) -> Optional[_GroupTracker]:
        lineages = [group.lineage for group in node.group_by]
        if not lineages or any(lineage is None for lineage in lineages):
            return None
        tracker = self._trackers.get(node.name)
        if tracker is None:
            tracker = _GroupTracker(compile_key(lineages))
            self._trackers[node.name] = tracker
        return tracker

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

    def _neutral(self, root: str, node: AnalyzedNode, gates) -> None:
        stream = self._base_stream(node)
        if stream is not None:
            self._interests.append(_NeutralInterest(root, stream, gates))

    def _descend(self, root: str, node: AnalyzedNode, gates: List) -> None:
        """Walk from a delivered root toward its sources, anchoring one
        interest per reachable source stream."""
        if node.kind is NodeKind.SOURCE:
            self._interests.append(_NeutralInterest(root, node.name, gates))
            return
        if node.kind is NodeKind.UNION:
            for name in node.inputs:
                self._descend(root, self._dag.node(name), list(gates))
            return
        if node.kind is NodeKind.SELECTION:
            child = self._dag.node(node.inputs[0])
            gate = _base_gate(node.where, child)
            self._descend(
                root, child, gates + ([gate] if gate is not None else [])
            )
            return
        if node.kind is NodeKind.AGGREGATION:
            stream = self._base_stream(node)
            tracker = self._tracker_for(node)
            if stream is None or tracker is None:
                self._neutral(root, node, gates)
                return
            child = self._dag.node(node.inputs[0])
            gate = _base_gate(node.where, child)
            if gate is not None:
                gates = gates + [gate]
            self._interests.append(
                _AggInterest(
                    root, stream, gates, tracker, _having_checker(self._dag, node)
                )
            )
            return
        if node.kind is NodeKind.JOIN:
            stream = self._base_stream(node)
            if stream is None:
                self._neutral(root, node, gates)
                return
            sides = []
            for name, exprs in (
                (node.inputs[0], [eq.left for eq in node.equalities]),
                (node.inputs[1], [eq.right for eq in node.equalities]),
            ):
                child = self._dag.node(name)
                mapping = _column_lineage(child)
                lineages = [_substitute_lineage(expr, mapping) for expr in exprs]
                key_fn = (
                    compile_key(lineages)
                    if lineages and all(line is not None for line in lineages)
                    else None
                )
                tracker = (
                    self._tracker_for(child)
                    if child.kind is NodeKind.AGGREGATION
                    else None
                )
                sides.append((key_fn, tracker))
            self._interests.append(
                _JoinInterest(
                    root, stream, gates, node.name,
                    sides[0][0], sides[1][0], sides[0][1], sides[1][1],
                )
            )
            return
        self._neutral(root, node, gates)

    # -- per-step state -------------------------------------------------------

    def open_buckets(self, query: str) -> Tuple[frozenset, frozenset]:
        return self._open.get(query, (frozenset(), frozenset()))

    def update_hints(self, hints: Dict[str, tuple]) -> None:
        """Install the executors' buffered-join-key reports for the step.

        ``hints`` maps plan node id -> (left keys, right keys); several
        plan nodes of one partitioned join merge by union (membership is
        all that is ever asked of the sets, so order never matters).
        """
        merged: Dict[str, Tuple[set, set]] = {}
        for node_id, payload in hints.items():
            query = self.hint_nodes.get(node_id)
            if query is None or payload is None:
                continue
            left, right = merged.setdefault(query, (set(), set()))
            left.update(payload[0])
            right.update(payload[1])
        self._open = {
            query: (frozenset(left), frozenset(right))
            for query, (left, right) in merged.items()
        }
        self._version += 1

    def observe_delivered(self, stream: str, batch) -> None:
        """Fold delivered rows into the running HAVING-feasibility state."""
        interests = [i for i in self._interests if i.stream == stream]
        if not any(isinstance(i, _AggInterest) and i.checker for i in interests):
            return
        for row in batch.to_rows():
            for interest in interests:
                interest.observe(row)

    def mark_lost(self, stream: str, batch) -> None:
        """Rows lost outside the shed path (``skip`` faults) corrupt
        their groups exactly like shed rows: doom them."""
        for row in batch.to_rows():
            self.profile(stream, row).doom()
        self._version += 1

    # -- valuation ------------------------------------------------------------

    def profile(self, stream: str, row: dict) -> _RowProfile:
        components = []
        for interest in self._interests:
            if interest.stream != stream:
                continue
            part = interest.component(row, self)
            if part is None:
                components.append((interest.root, 0.0, ()))
            else:
                components.append((interest.root, part[0], part[1]))
        return _RowProfile(components)

    def value(self, stream: str, row: dict) -> float:
        return self.profile(stream, row).value()

    @property
    def version(self) -> int:
        """Bumped whenever doom state changes (revaluation marker)."""
        return self._version

    def bump(self) -> None:
        self._version += 1


# -- the shed selector -------------------------------------------------------------


def shed_lowest_value(
    queue, excess: int, model: ValueModel
) -> Tuple[int, Dict[str, int]]:
    """Shed ``excess`` rows from a host's queued entries, lowest value
    first (ties newest first), mutating the entries' batches in place.

    Works on the flow-control queue's ``_Entry`` objects (``stream`` /
    ``batch`` attributes).  Returns the shed count and the per-query
    attribution: for each delivered root, how many shed rows still had
    value for it at the moment they were shed (rows already worthless to
    a query are never charged to it).

    Selection is greedy with doom feedback: shedding a row dooms its
    groups, which can only *lower* other rows' values, so a lazy
    reevaluation heap is exact — a popped row whose profile is stale is
    re-scored and pushed back; a fresh pop is a true minimum.
    """
    candidates: List[Tuple[object, int, _RowProfile]] = []
    rows_of = []
    for entry in queue:
        rows = entry.batch.to_rows()
        rows_of.append((entry, len(rows)))
        for index, row in enumerate(rows):
            candidates.append((entry, index, model.profile(entry.stream, row)))
    excess = min(excess, len(candidates))
    if excess <= 0:
        return 0, {}
    # Heap of (value, -position, position): position breaks ties newest
    # first and makes the ordering total, so heap order is deterministic.
    heap = []
    stamps = {}
    version = model.version
    for position, (_, _, profile) in enumerate(candidates):
        heap.append((profile.value(), -position, position))
        stamps[position] = version
    heapq.heapify(heap)
    shed_positions: Set[int] = set()
    charged: Dict[str, int] = {}
    while len(shed_positions) < excess:
        value, _, position = heapq.heappop(heap)
        profile = candidates[position][2]
        if stamps[position] != model.version:
            stamps[position] = model.version
            current = profile.value()
            if current < value:
                heapq.heappush(heap, (current, -position, position))
                continue
        shed_positions.add(position)
        roots = profile.doom()
        if roots:
            model.bump()
            for root in roots:
                charged[root] = charged.get(root, 0) + 1
    # Rebuild each entry's batch with its surviving rows, in order.
    position = 0
    for entry, count in rows_of:
        keep = [
            index
            for index in range(count)
            if (position + index) not in shed_positions
        ]
        if len(keep) != count:
            entry.batch = entry.batch.select(np.asarray(keep, dtype=np.int64))
        position += count
    return excess, charged
