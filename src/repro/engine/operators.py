"""The row operators: the §3.4 oracle's FULL operators over batches of rows.

Rows are plain dicts keyed by column name.  Operators are pure: they take
input batches and return output batches.  The runtime never runs them —
it runs the kernels of :mod:`repro.engine.columnar` — they are what
:func:`~repro.engine.executor.run_centralized` evaluates a query DAG
with, one FULL operator per node (an outer join pads its own unmatched
rows; a windowed aggregation is
:class:`~repro.engine.variants.WindowAggregateOp`).

Tumbling-window note: each operator processes whatever batch it is given
with temporal keys included in group/join keys.  Handing it a whole trace
as one batch yields exactly the union of all per-epoch tumbling-window
results (each epoch's groups are disjoint by the temporal key); rates are
recovered by dividing totals by the trace duration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..expr.evaluator import compile_expr, compile_key
from ..gsql.analyzer import AnalyzedNode, NodeKind
from ..gsql.ast_nodes import JoinType
from .aggregates import GroupAccumulator, aggregate_impl

Row = Dict[str, object]
Batch = List[Row]


class Operator:
    """Base class: ``process`` consumes input batches, returns one batch."""

    def process(self, *batches: Batch) -> Batch:
        raise NotImplementedError


class MergeOp(Operator):
    """Stream union: concatenate all input batches (paper's merge node)."""

    def process(self, *batches: Batch) -> Batch:
        # Always return a fresh list — even for a single input — so no
        # downstream operator can mutate a sibling consumer's batch.
        merged: Batch = []
        for batch in batches:
            merged.extend(batch)
        return merged


class SelectionOp(Operator):
    """Selection/projection: WHERE filter plus computed output columns."""

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.SELECTION:
            raise ValueError(f"{node.name} is not a selection node")
        self._predicate = compile_expr(node.where) if node.where is not None else None
        self._outputs = [
            (column.name, compile_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]

    def process(self, *batches: Batch) -> Batch:
        (rows,) = batches
        predicate = self._predicate
        outputs = self._outputs
        result: Batch = []
        for row in rows:
            if predicate is not None and not predicate(row):
                continue
            result.append({name: fn(row) for name, fn in outputs})
        return result


class AggregateOp(Operator):
    """Tumbling-window group-by aggregation — FULL variant.

    Groups on the (temporal + non-temporal) group-by expressions, folds
    the aggregate calls, applies HAVING on the finished groups, and
    projects the SELECT list.
    """

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.AGGREGATION:
            raise ValueError(f"{node.name} is not an aggregation node")
        self._node = node
        self._where = compile_expr(node.where) if node.where is not None else None
        self._key = compile_key([g.expr for g in node.group_by])
        self._gb_names = [g.name for g in node.group_by]
        self._impls = [aggregate_impl(call.func) for call in node.aggregates]
        self._args = [
            compile_expr(call.arg) if call.arg is not None else None
            for call in node.aggregates
        ]
        self._slots = [call.slot for call in node.aggregates]
        self._having = compile_expr(node.having) if node.having is not None else None
        self._outputs = [
            (column.name, compile_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]

    def process(self, *batches: Batch) -> Batch:
        (rows,) = batches
        return self._emit(self._accumulate(self._keyed(rows)))

    def _keyed(self, rows: Batch) -> List[Tuple[tuple, Row]]:
        """``(group key, row)`` of every row that passes WHERE."""
        where = self._where
        key_of = self._key
        return [(key_of(row), row) for row in rows if where is None or where(row)]

    def _accumulate(
        self, keyed: Iterable[Tuple[tuple, Row]]
    ) -> Dict[tuple, GroupAccumulator]:
        args = self._args
        groups: Dict[tuple, GroupAccumulator] = {}
        for key, row in keyed:
            accumulator = groups.get(key)
            if accumulator is None:
                accumulator = GroupAccumulator(self._impls)
                groups[key] = accumulator
            accumulator.update([arg(row) if arg is not None else None for arg in args])
        return groups

    def _emit(self, groups: Dict[tuple, GroupAccumulator]) -> Batch:
        having = self._having
        outputs = self._outputs
        gb_names = self._gb_names
        slots = self._slots
        result: Batch = []
        for key, accumulator in groups.items():
            group_row: Row = dict(zip(gb_names, key))
            group_row.update(zip(slots, accumulator.finals()))
            if having is not None and not having(group_row):
                continue
            result.append({name: fn(group_row) for name, fn in outputs})
        return result


class JoinOp(Operator):
    """Two-way equi-join with tumbling-window semantics (inner and outer).

    Builds a hash table on the right input keyed by the right-side join
    expressions, probes with the left input, applies the residual
    predicate, and projects the SELECT list over the merged, qualified row
    (columns named ``alias.column``).
    """

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.JOIN:
            raise ValueError(f"{node.name} is not a join node")
        self._node = node
        left_alias, right_alias = node.input_aliases
        self._left_alias = left_alias
        self._right_alias = right_alias
        self._left_key = compile_key([eq.left for eq in node.equalities])
        self._right_key = compile_key([eq.right for eq in node.equalities])
        self._residual = (
            compile_expr(node.residual) if node.residual is not None else None
        )
        self._outputs = [
            (column.name, compile_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self._join_type = node.join_type
        # Every column the join can reference must exist (as NULL) on a
        # padded side, or projecting/filtering padded rows would KeyError.
        self._left_columns = sorted(node.input_attrs(0))
        self._right_columns = sorted(node.input_attrs(1))

    def process(self, *batches: Batch) -> Batch:
        left_rows, right_rows = batches
        right_index: Dict[tuple, List[Row]] = {}
        for row in right_rows:
            right_index.setdefault(self._right_key(row), []).append(row)
        result: Batch = []
        matched_right = set()
        for left_row in left_rows:
            key = self._left_key(left_row)
            matches = right_index.get(key)
            found = False
            if matches:
                for right_row in matches:
                    merged = self._merge(left_row, right_row)
                    if self._residual is not None and not self._residual(merged):
                        continue
                    found = True
                    matched_right.add(id(right_row))
                    result.append(self._project(merged))
            if not found and self._join_type in (
                JoinType.LEFT_OUTER,
                JoinType.FULL_OUTER,
            ):
                result.append(self._project(self._merge(left_row, None), padded=True))
        if self._join_type in (JoinType.RIGHT_OUTER, JoinType.FULL_OUTER):
            for row in right_rows:
                if id(row) not in matched_right:
                    result.append(self._project(self._merge(None, row), padded=True))
        return result

    def _merge(self, left_row: Optional[Row], right_row: Optional[Row]) -> Row:
        merged: Row = {}
        left_schema = self._left_columns
        right_schema = self._right_columns
        if left_row is not None:
            for name in left_row:
                merged[f"{self._left_alias}.{name}"] = left_row[name]
        else:
            for name in left_schema:
                merged[f"{self._left_alias}.{name}"] = None
        if right_row is not None:
            for name in right_row:
                merged[f"{self._right_alias}.{name}"] = right_row[name]
        else:
            for name in right_schema:
                merged[f"{self._right_alias}.{name}"] = None
        return merged

    def _project(self, merged: Row, padded: bool = False) -> Row:
        """Evaluate the SELECT list over a merged row.

        Only a *padded* row (one side replaced by NULLs — an outer join's
        unmatched rows) may legitimately hit NULL arithmetic, which SQL
        resolves to NULL.  On fully-matched rows a TypeError is a genuine
        expression bug and must raise.
        """
        out: Row = {}
        if not padded:
            for name, fn in self._outputs:
                out[name] = fn(merged)
            return out
        for name, fn in self._outputs:
            try:
                out[name] = fn(merged)
            except TypeError:
                out[name] = None  # NULL arithmetic from the padded side
        return out


def build_operator(node: AnalyzedNode) -> Operator:
    """Factory: the row operator for an analyzed node — tumbling, FULL."""
    if node.kind is NodeKind.SELECTION:
        return SelectionOp(node)
    if node.kind is NodeKind.AGGREGATION:
        return AggregateOp(node)
    if node.kind is NodeKind.JOIN:
        return JoinOp(node)
    if node.kind is NodeKind.UNION:
        return MergeOp()
    raise ValueError(f"no operator for node kind {node.kind!r}")
