"""Semantic analysis: parse ASTs become typed, resolved query nodes.

The analyzer produces :class:`AnalyzedNode` objects that carry everything
the rest of the system needs:

* the node *kind* (selection, aggregation, join, union) — the operator
  classes of paper section 3.5;
* a derived output :class:`~repro.gsql.schema.StreamSchema`;
* per-output-column **source lineage**: a canonical scalar expression over
  the *base stream* attributes when the column is so expressible, else
  ``None``.  Lineage is what lets the partitioning framework reason about
  a whole query DAG in terms of a single partitioning of the raw input
  (paper section 4 analyzes arbitrary query sets this way);
* for aggregations: group-by columns (with temporal flags and lineage),
  the extracted aggregate calls, and rewritten SELECT/HAVING expressions
  referencing aggregate slots;
* for joins: oriented equality predicates split into left-side/right-side
  scalar expressions, the temporal pair identified, plus residual
  predicates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..expr import analysis as xanalysis
from ..expr import expressions as xp
from ..expr.evaluator import _SCALAR_FUNCS
from . import ast_nodes as ast
from .errors import SemanticError, UnknownColumnError
from .schema import Column, Ordering, StreamSchema
from .types import (
    BOOL,
    FLOAT,
    UINT,
    UINT8,
    UINT16,
    UINT64,
    ColumnType,
    merge_numeric,
)

if TYPE_CHECKING:
    from ..engine.panes import WindowSpec

# Aggregate functions and their result-type rules.  ``OR_AGGR``/``AND_AGGR``
# are the Gigascope bitwise-fold UDAFs used by the suspicious-flow query.
# The set is mutable: registering a UDAF implementation with the engine
# (repro.engine.aggregates.register_aggregate) also registers its name
# here so it is recognized in GSQL text.
AGGREGATE_FUNCTIONS = {
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    "OR_AGGR",
    "AND_AGGR",
    # Sketch-answerable variants; the analyzer strips the prefix and marks
    # the extracted call ``approximate`` so the optimizer may (but need
    # not) answer it from a Count-Min sketch.
    "APPROX_COUNT",
    "APPROX_SUM",
}

# Result-type overrides for registered UDAFs: name -> ColumnType or a
# callable mapping the argument type to the result type.
_UDAF_RESULT_TYPES: Dict[str, object] = {}


def register_aggregate_name(name: str, result_type=None) -> None:
    """Make ``name`` parse as an aggregate function in GSQL.

    ``result_type`` is either a ColumnType, a callable ``arg_type ->
    ColumnType``, or None (the argument's type is preserved, like
    MIN/MAX).  Called by the engine's UDAF registration.
    """
    AGGREGATE_FUNCTIONS.add(name.upper())
    if result_type is not None:
        _UDAF_RESULT_TYPES[name.upper()] = result_type

_PREDICATE_OPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "AND", "OR"})


class NodeKind(enum.Enum):
    SOURCE = "source"
    SELECTION = "selection"  # selection and/or projection only
    AGGREGATION = "aggregation"
    JOIN = "join"
    UNION = "union"


@dataclass
class OutputColumn:
    """One column of a node's output schema.

    ``lineage`` is the column's value as a scalar expression over base
    stream attributes, or None when not expressible (aggregate results,
    columns derived from them, or un-synchronized join columns).
    """

    name: str
    ctype: ColumnType
    lineage: Optional[xp.ScalarExpr]
    is_temporal: bool = False


@dataclass
class GroupByColumn:
    """One GROUP BY entry of an aggregation node."""

    name: str
    expr: xp.ScalarExpr  # over the node's input columns
    lineage: Optional[xp.ScalarExpr]  # over base stream attributes
    ctype: ColumnType
    is_temporal: bool


@dataclass
class AggregateCall:
    """An extracted aggregate: function, argument, and its output slot.

    ``approximate`` marks calls written as ``APPROX_*``: ``func`` is the
    underlying exact function (so every engine can evaluate the call
    exactly), and the flag records that a sketch answer is acceptable.
    """

    func: str
    arg: Optional[xp.ScalarExpr]  # None for COUNT(*)
    slot: str  # internal name the rewritten expressions refer to
    ctype: ColumnType = UINT64
    approximate: bool = False


@dataclass
class JoinEquality:
    """An oriented equi-join predicate ``left_expr == right_expr``.

    Each side is a scalar expression over the columns of the respective
    child.  ``temporal`` marks the predicate relating the ordered
    attributes (required for tumbling-window join semantics).
    """

    left: xp.ScalarExpr
    right: xp.ScalarExpr
    temporal: bool = False


@dataclass
class AnalyzedNode:
    """A fully resolved query node; the unit the planner works with."""

    name: str
    kind: NodeKind
    inputs: List[str]
    schema: StreamSchema
    columns: List[OutputColumn]
    # Selection/projection and shared fields --------------------------------
    where: Optional[xp.ScalarExpr] = None  # over input columns
    select_exprs: List[xp.ScalarExpr] = field(default_factory=list)
    # Aggregation ------------------------------------------------------------
    group_by: List[GroupByColumn] = field(default_factory=list)
    aggregates: List[AggregateCall] = field(default_factory=list)
    having: Optional[xp.ScalarExpr] = None  # over group-by names + agg slots
    # Join ---------------------------------------------------------------------
    join_type: ast.JoinType = ast.JoinType.INNER
    equalities: List[JoinEquality] = field(default_factory=list)
    residual: Optional[xp.ScalarExpr] = None  # over qualified merged columns
    input_aliases: List[str] = field(default_factory=list)
    # Base-stream expressions on which both sides of every matching tuple
    # pair agree; the join's partitioning basis (see _synchronized_lineage).
    join_synchronized: List[xp.ScalarExpr] = field(default_factory=list)
    # Sliding-window / approximation (aggregation only) -----------------------
    window: Optional["WindowSpec"] = None
    accuracy: Optional[ast.AccuracyClause] = None
    # Cost-model annotations (may be overridden per workload) -----------------
    selectivity_hint: Optional[float] = None

    @property
    def is_approximate(self) -> bool:
        """True when the query carries an accuracy budget (sketch-eligible)."""
        return self.accuracy is not None

    @property
    def is_join(self) -> bool:
        return self.kind is NodeKind.JOIN

    def input_attrs(self, position: int) -> Optional[frozenset]:
        """Columns of input ``position`` this node's expressions read;
        None when it passes every column through (UNION).

        That is everything evaluated over input rows: WHERE, the GROUP BY
        expressions and aggregate arguments, a selection's SELECT list,
        and for a join its side of each equality plus the
        ``alias.column`` references of the residual and the SELECT list.
        HAVING and an aggregation's SELECT list run over group-by names
        and aggregate slots, not input columns.
        """
        if self.kind is NodeKind.UNION:
            return None
        if self.kind is NodeKind.JOIN:
            exprs = [
                eq.right if position else eq.left for eq in self.equalities
            ]
            qualified = list(self.select_exprs)
            if self.residual is not None:
                qualified.append(self.residual)
            prefix = f"{self.input_aliases[position]}."
            attrs = {
                attr[len(prefix):]
                for expr in qualified
                for attr in expr.attrs()
                if attr.startswith(prefix)
            }
        else:
            exprs = [g.expr for g in self.group_by]
            exprs += [call.arg for call in self.aggregates if call.arg is not None]
            if self.where is not None:
                exprs.append(self.where)
            if self.kind is NodeKind.SELECTION:
                exprs += self.select_exprs
            attrs = set()
        for expr in exprs:
            attrs |= expr.attrs()
        return frozenset(attrs)

    def describe(self) -> str:
        return f"{self.name}[{self.kind.value}] <- {', '.join(self.inputs)}"


class _Scope:
    """Column resolution scope for one child of a query node."""

    def __init__(
        self,
        binding: str,
        schema: StreamSchema,
        lineage: Dict[str, Optional[xp.ScalarExpr]],
    ):
        self.binding = binding
        self.schema = schema
        self.lineage = lineage  # input column name -> base-stream lineage


class Analyzer:
    """Turns parsed statements into :class:`AnalyzedNode` objects.

    The analyzer is driven by the catalog, which supplies already-analyzed
    children via ``resolve_input``.
    """

    def __init__(self, resolve_input: Callable[[str], AnalyzedNode]):
        self._resolve_input = resolve_input

    # -- entry point ---------------------------------------------------------

    def analyze(self, name: str, statement) -> List[AnalyzedNode]:
        """Analyze ``statement``; returns the produced nodes, root last.

        A UNION statement expands into one anonymous node per branch plus
        the union node itself, hence the list return.
        """
        if isinstance(statement, ast.UnionStmt):
            return self._analyze_union(name, statement)
        if isinstance(statement, ast.SelectStmt):
            return [self._analyze_select(name, statement)]
        raise SemanticError(f"cannot analyze statement of type {type(statement)!r}")

    # -- union ------------------------------------------------------------------

    def _analyze_union(self, name: str, stmt: ast.UnionStmt) -> List[AnalyzedNode]:
        produced: List[AnalyzedNode] = []
        branch_nodes: List[AnalyzedNode] = []
        for index, select in enumerate(stmt.selects):
            branch = self._analyze_select(f"{name}__branch{index}", select)
            produced.append(branch)
            branch_nodes.append(branch)
        first = branch_nodes[0]
        for other in branch_nodes[1:]:
            if other.schema.column_names() != first.schema.column_names():
                raise SemanticError(
                    f"UNION branches of {name!r} have mismatched columns: "
                    f"{first.schema.column_names()} vs {other.schema.column_names()}"
                )
        columns = [
            OutputColumn(
                column.name,
                column.ctype,
                _common_lineage([b.columns[i].lineage for b in branch_nodes]),
                column.is_temporal,
            )
            for i, column in enumerate(first.columns)
        ]
        union = AnalyzedNode(
            name=name,
            kind=NodeKind.UNION,
            inputs=[branch.name for branch in branch_nodes],
            schema=_schema_from_columns(name, columns),
            columns=columns,
        )
        produced.append(union)
        return produced

    # -- select ----------------------------------------------------------------

    def _analyze_select(self, name: str, stmt: ast.SelectStmt) -> AnalyzedNode:
        if stmt.is_join:
            return self._analyze_join(name, stmt)
        scope = self._scope_for(stmt.tables[0])
        if stmt.group_by or self._has_aggregate(stmt):
            return self._analyze_aggregation(name, stmt, scope)
        return self._analyze_selection(name, stmt, scope)

    def _scope_for(self, table: ast.TableRef) -> _Scope:
        child = self._resolve_input(table.name)
        lineage = {column.name: column.lineage for column in child.columns}
        return _Scope(table.binding, child.schema, lineage)

    def _has_aggregate(self, stmt: ast.SelectStmt) -> bool:
        candidates = [item.expr for item in stmt.items]
        if stmt.having is not None:
            candidates.append(stmt.having)
        for expr in candidates:
            for node in expr.walk():
                if isinstance(node, ast.FuncCall) and node.name in AGGREGATE_FUNCTIONS:
                    return True
        return False

    # -- plain selection/projection ---------------------------------------------

    def _analyze_selection(
        self, name: str, stmt: ast.SelectStmt, scope: _Scope
    ) -> AnalyzedNode:
        if stmt.having is not None:
            raise SemanticError(f"query {name!r}: HAVING requires GROUP BY")
        if stmt.window is not None or stmt.accuracy is not None:
            raise SemanticError(
                f"query {name!r}: RANGE/SLIDE and ERROR/CONFIDENCE clauses "
                "apply only to aggregation queries"
            )
        where = self._convert_predicate(stmt.where, scope) if stmt.where else None
        columns: List[OutputColumn] = []
        select_exprs: List[xp.ScalarExpr] = []
        for index, item in enumerate(stmt.items):
            if isinstance(item.expr, ast.Star):
                for column in scope.schema:
                    select_exprs.append(xp.Attr(column.name))
                    columns.append(
                        OutputColumn(
                            column.name,
                            column.ctype,
                            scope.lineage.get(column.name),
                            column.is_temporal,
                        )
                    )
                continue
            out_name = _output_name(item, index)
            expr = self._convert_scalar(item.expr, scope)
            ctype = self._infer_type(item.expr, scope)
            lineage = _substitute_lineage(expr, scope.lineage)
            is_temporal = self._expr_is_temporal(expr, scope)
            select_exprs.append(expr)
            columns.append(OutputColumn(out_name, ctype, lineage, is_temporal))
        return AnalyzedNode(
            name=name,
            kind=NodeKind.SELECTION,
            inputs=[stmt.tables[0].name],
            schema=_schema_from_columns(name, columns),
            columns=columns,
            where=where,
            select_exprs=select_exprs,
        )

    # -- aggregation --------------------------------------------------------------

    def _analyze_aggregation(
        self, name: str, stmt: ast.SelectStmt, scope: _Scope
    ) -> AnalyzedNode:
        where = self._convert_predicate(stmt.where, scope) if stmt.where else None
        group_by: List[GroupByColumn] = []
        gb_names: Dict[str, GroupByColumn] = {}
        for index, item in enumerate(stmt.group_by):
            gb_name = item.alias or _expr_name(item.expr, f"gb_{index}")
            expr = self._convert_scalar(item.expr, scope)
            ctype = self._infer_type(item.expr, scope)
            lineage = _substitute_lineage(expr, scope.lineage)
            is_temporal = self._expr_is_temporal(expr, scope)
            column = GroupByColumn(gb_name, expr, lineage, ctype, is_temporal)
            group_by.append(column)
            gb_names[gb_name] = column

        aggregates: List[AggregateCall] = []

        def rewrite(node: ast.Expr) -> xp.ScalarExpr:
            return self._rewrite_agg_expr(node, scope, gb_names, aggregates)

        columns: List[OutputColumn] = []
        select_exprs: List[xp.ScalarExpr] = []
        for index, item in enumerate(stmt.items):
            out_name = _output_name(item, index)
            expr = rewrite(item.expr)
            select_exprs.append(expr)
            ctype, lineage, is_temporal = self._aggregated_column_info(
                item.expr, expr, scope, gb_names, aggregates
            )
            columns.append(OutputColumn(out_name, ctype, lineage, is_temporal))
        having = rewrite(stmt.having) if stmt.having is not None else None
        window = self._window_spec(name, stmt, group_by)
        accuracy = self._accuracy_clause(name, stmt, aggregates, group_by)
        return AnalyzedNode(
            name=name,
            kind=NodeKind.AGGREGATION,
            inputs=[stmt.tables[0].name],
            schema=_schema_from_columns(name, columns),
            columns=columns,
            where=where,
            select_exprs=select_exprs,
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            window=window,
            accuracy=accuracy,
        )

    def _window_spec(
        self, name: str, stmt: ast.SelectStmt, group_by: List[GroupByColumn]
    ) -> Optional["WindowSpec"]:
        """Validate and convert a RANGE/SLIDE clause to a WindowSpec."""
        if stmt.window is None:
            return None
        # Lazy import: engine.panes imports this module for AnalyzedNode.
        from ..engine.panes import WindowSpec

        temporal = [g for g in group_by if g.is_temporal]
        if len(temporal) != 1:
            raise SemanticError(
                f"query {name!r}: a RANGE/SLIDE window requires exactly one "
                f"temporal group-by column (the pane index), found "
                f"{len(temporal)}"
            )
        try:
            return WindowSpec(stmt.window.range_panes, stmt.window.slide_panes)
        except ValueError as exc:
            raise SemanticError(f"query {name!r}: {exc}") from None

    def _accuracy_clause(
        self,
        name: str,
        stmt: ast.SelectStmt,
        aggregates: List[AggregateCall],
        group_by: List[GroupByColumn],
    ) -> Optional[ast.AccuracyClause]:
        """Validate the ERROR/CONFIDENCE clause against the APPROX_* calls."""
        approx = [call for call in aggregates if call.approximate]
        if stmt.accuracy is None:
            if approx:
                raise SemanticError(
                    f"query {name!r}: APPROX_* aggregates require an "
                    "ERROR <epsilon> CONFIDENCE <conf> clause"
                )
            return None
        clause = stmt.accuracy
        temporal = [g for g in group_by if g.is_temporal]
        if len(temporal) != 1:
            raise SemanticError(
                f"query {name!r}: an ERROR/CONFIDENCE clause requires exactly "
                f"one temporal group-by column (the pane index), found "
                f"{len(temporal)}"
            )
        if not 0.0 < clause.epsilon < 1.0:
            raise SemanticError(
                f"query {name!r}: ERROR must lie in (0, 1), got {clause.epsilon}"
            )
        if not 0.0 < clause.confidence < 1.0:
            raise SemanticError(
                f"query {name!r}: CONFIDENCE must lie in (0, 1), "
                f"got {clause.confidence}"
            )
        if not approx:
            raise SemanticError(
                f"query {name!r}: an ERROR/CONFIDENCE clause requires at "
                "least one APPROX_* aggregate"
            )
        return clause

    def _rewrite_agg_expr(
        self,
        node: ast.Expr,
        scope: _Scope,
        gb_names: Dict[str, GroupByColumn],
        aggregates: List[AggregateCall],
    ) -> xp.ScalarExpr:
        """Rewrite a SELECT/HAVING expression of an aggregation query.

        Aggregate calls become references to fresh slots (``__agg0`` ...);
        everything else must resolve to group-by aliases or group-by-equal
        expressions.  The result is evaluable over a "group row" holding
        group-by values plus aggregate slots.
        """
        if isinstance(node, ast.FuncCall) and node.name in AGGREGATE_FUNCTIONS:
            call = self._extract_aggregate(node, scope, len(aggregates))
            for existing in aggregates:
                if (
                    existing.func == call.func
                    and existing.arg == call.arg
                    and existing.approximate == call.approximate
                ):
                    return xp.Attr(existing.slot)
            aggregates.append(call)
            return xp.Attr(call.slot)
        if isinstance(node, ast.ColumnRef) and node.name in gb_names:
            return xp.Attr(node.name)
        if isinstance(node, (ast.NumberLit, ast.BoolLit)):
            return xp.from_ast(node)
        if isinstance(node, ast.BinaryOp):
            left = self._rewrite_agg_expr(node.left, scope, gb_names, aggregates)
            right = self._rewrite_agg_expr(node.right, scope, gb_names, aggregates)
            if node.op in _PREDICATE_OPS:
                return xp.Func(_predicate_func(node.op), (left, right))
            return xp.binary(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._rewrite_agg_expr(node.operand, scope, gb_names, aggregates)
            if node.op == "NOT":
                return xp.Func("NOT", (operand,))
            return xp.unary(node.op, operand)
        if isinstance(node, ast.ColumnRef):
            # Not a group-by alias: legal only if it equals a group-by
            # expression (SQL's "functionally determined" shorthand).
            expr = self._convert_scalar(node, scope)
            for gb in gb_names.values():
                if gb.expr == expr:
                    return xp.Attr(gb.name)
            raise SemanticError(
                f"column {node} is neither a group-by expression nor aggregated"
            )
        raise SemanticError(f"unsupported expression {node} in aggregation query")

    def _extract_aggregate(
        self, node: ast.FuncCall, scope: _Scope, index: int
    ) -> AggregateCall:
        slot = f"__agg{index}"
        func = node.name
        approximate = func.startswith("APPROX_")
        if approximate:
            func = func[len("APPROX_") :]
            if func not in ("COUNT", "SUM"):
                raise SemanticError(
                    f"approximate aggregate {node.name} is not supported; "
                    "only APPROX_COUNT and APPROX_SUM are sketch-answerable"
                )
        if func == "COUNT":
            if len(node.args) == 1 and isinstance(node.args[0], ast.Star):
                return AggregateCall("COUNT", None, slot, UINT64, approximate)
        if len(node.args) != 1 or isinstance(node.args[0], ast.Star):
            raise SemanticError(f"aggregate {node.name} takes exactly one column argument")
        arg = self._convert_scalar(node.args[0], scope)
        arg_type = self._infer_type(node.args[0], scope)
        result_type = _aggregate_result_type(func, arg_type)
        return AggregateCall(func, arg, slot, result_type, approximate)

    def _aggregated_column_info(
        self,
        original: ast.Expr,
        rewritten: xp.ScalarExpr,
        scope: _Scope,
        gb_names: Dict[str, GroupByColumn],
        aggregates: List[AggregateCall],
    ) -> Tuple[ColumnType, Optional[xp.ScalarExpr], bool]:
        """Type, lineage and temporal flag for one aggregation output column."""
        slots = {call.slot: call for call in aggregates}
        used = {a.name for a in rewritten.walk() if isinstance(a, xp.Attr)}
        uses_agg = any(slot in slots for slot in used)
        if uses_agg:
            if isinstance(rewritten, xp.Attr) and rewritten.name in slots:
                return slots[rewritten.name].ctype, None, False
            return UINT64, None, False
        # Pure group-by expression: lineage = substitute group-by lineages.
        mapping = {gb.name: gb.lineage for gb in gb_names.values()}
        lineage = _substitute_lineage(rewritten, mapping)
        if isinstance(rewritten, xp.Attr) and rewritten.name in gb_names:
            gb = gb_names[rewritten.name]
            return gb.ctype, lineage, gb.is_temporal
        ctype = self._infer_type(original, scope, extra=gb_names)
        temporal = any(gb_names[n].is_temporal for n in used if n in gb_names)
        return ctype, lineage, temporal

    # -- join -----------------------------------------------------------------------

    def _analyze_join(self, name: str, stmt: ast.SelectStmt) -> AnalyzedNode:
        left_table, right_table = stmt.tables
        left = self._scope_for(left_table)
        right = self._scope_for(right_table)
        if left.binding == right.binding:
            raise SemanticError(
                f"join {name!r}: both sides bound to {left.binding!r}; use aliases"
            )
        if stmt.group_by or self._has_aggregate(stmt):
            raise SemanticError(
                f"query {name!r}: aggregation over a join must be written as "
                "two queries (a join view plus an aggregation over it)"
            )
        if stmt.window is not None or stmt.accuracy is not None:
            raise SemanticError(
                f"query {name!r}: RANGE/SLIDE and ERROR/CONFIDENCE clauses "
                "apply only to aggregation queries"
            )
        equalities, residual = self._split_join_predicates(stmt.where, left, right)
        if not any(eq.temporal for eq in equalities):
            raise SemanticError(
                f"join {name!r} needs an equality predicate relating the "
                "temporal attributes of its inputs (tumbling-window semantics, "
                "paper section 3.1)"
            )
        columns: List[OutputColumn] = []
        select_exprs: List[xp.ScalarExpr] = []
        synchronized = self._synchronized_lineage(equalities, left, right)
        for index, item in enumerate(stmt.items):
            out_name = _output_name(item, index)
            expr = self._convert_join_scalar(item.expr, left, right)
            ctype = self._infer_join_type(item.expr, left, right)
            lineage = self._join_lineage(expr, left, right, synchronized)
            is_temporal = self._join_expr_is_temporal(expr, left, right)
            columns.append(OutputColumn(out_name, ctype, lineage, is_temporal))
            select_exprs.append(expr)
        return AnalyzedNode(
            name=name,
            kind=NodeKind.JOIN,
            inputs=[left_table.name, right_table.name],
            schema=_schema_from_columns(name, columns),
            columns=columns,
            select_exprs=select_exprs,
            join_type=stmt.join_type,
            equalities=equalities,
            residual=residual,
            input_aliases=[left.binding, right.binding],
            join_synchronized=synchronized,
        )

    def _split_join_predicates(
        self, where: Optional[ast.Expr], left: _Scope, right: _Scope
    ) -> Tuple[List[JoinEquality], Optional[xp.ScalarExpr]]:
        """Split a CNF WHERE clause into oriented equalities plus residual."""
        if where is None:
            raise SemanticError("join queries require a WHERE clause with join predicates")
        conjuncts = _cnf_conjuncts(where)
        equalities: List[JoinEquality] = []
        residual_terms: List[xp.ScalarExpr] = []
        for conjunct in conjuncts:
            equality = self._try_orient_equality(conjunct, left, right)
            if equality is not None:
                equalities.append(equality)
            else:
                residual_terms.append(self._convert_join_scalar(conjunct, left, right))
        if not equalities:
            raise SemanticError(
                "join WHERE clause contains no equality predicate between its inputs"
            )
        residual = None
        for term in residual_terms:
            residual = term if residual is None else xp.binary("&", residual, term)
        return equalities, residual

    def _try_orient_equality(
        self, conjunct: ast.Expr, left: _Scope, right: _Scope
    ) -> Optional[JoinEquality]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        sides = []
        for part in (conjunct.left, conjunct.right):
            bindings = self._bindings_of(part, left, right)
            sides.append(bindings)
        left_first = sides[0] == {left.binding} and sides[1] == {right.binding}
        right_first = sides[0] == {right.binding} and sides[1] == {left.binding}
        if not (left_first or right_first):
            return None
        if left_first:
            left_ast, right_ast = conjunct.left, conjunct.right
        else:
            left_ast, right_ast = conjunct.right, conjunct.left
        left_expr = self._convert_scalar(left_ast, left, allow_qualifier=True)
        right_expr = self._convert_scalar(right_ast, right, allow_qualifier=True)
        temporal = self._expr_is_temporal(left_expr, left) and self._expr_is_temporal(
            right_expr, right
        )
        return JoinEquality(left_expr, right_expr, temporal)

    def _bindings_of(self, node: ast.Expr, left: _Scope, right: _Scope) -> set:
        """Which side(s) of the join an expression references."""
        bindings = set()
        for sub in node.walk():
            if not isinstance(sub, ast.ColumnRef):
                continue
            if sub.qualifier is not None:
                if sub.qualifier not in (left.binding, right.binding):
                    raise UnknownColumnError(
                        str(sub), [left.binding, right.binding]
                    )
                bindings.add(sub.qualifier)
            else:
                in_left = sub.name in left.schema
                in_right = sub.name in right.schema
                if in_left and in_right:
                    raise SemanticError(
                        f"ambiguous column {sub.name!r}: present on both join sides"
                    )
                if in_left:
                    bindings.add(left.binding)
                elif in_right:
                    bindings.add(right.binding)
                else:
                    raise UnknownColumnError(
                        sub.name, left.schema.column_names() + right.schema.column_names()
                    )
        return bindings

    def _synchronized_lineage(
        self, equalities: List[JoinEquality], left: _Scope, right: _Scope
    ) -> List[xp.ScalarExpr]:
        """Base-stream expressions equal on both sides of every matched pair.

        Only these may contribute to join-output lineage and partitioning:
        for a matching tuple pair, both tuples agree on these expressions.
        """
        synchronized = []
        for equality in equalities:
            left_lineage = _substitute_lineage(equality.left, left.lineage)
            right_lineage = _substitute_lineage(equality.right, right.lineage)
            if left_lineage is None or right_lineage is None:
                continue
            if xanalysis.equivalent(left_lineage, right_lineage):
                synchronized.append(left_lineage)
        return synchronized

    def _join_lineage(
        self,
        expr: xp.ScalarExpr,
        left: _Scope,
        right: _Scope,
        synchronized: List[xp.ScalarExpr],
    ) -> Optional[xp.ScalarExpr]:
        """Lineage of a join output column, when sound.

        The substituted expression is only usable if it is a function of the
        synchronized join keys; otherwise tuples from the two sides may
        disagree on it and downstream partitioning reasoning would be wrong.
        """
        mapping = {}
        for scope in (left, right):
            for col, lineage in scope.lineage.items():
                mapping[f"{scope.binding}.{col}"] = lineage
                mapping.setdefault(col, lineage)
        lineage = _substitute_lineage(expr, mapping)
        if lineage is None:
            return None
        if xanalysis.is_function_of_any(lineage, synchronized):
            return lineage
        return None

    def _convert_join_scalar(
        self, node: ast.Expr, left: _Scope, right: _Scope
    ) -> xp.ScalarExpr:
        """Convert a join expression to run over the merged, qualified row."""

        def resolve(ref: ast.ColumnRef):
            if ref.qualifier is not None:
                scope = left if ref.qualifier == left.binding else right
                if ref.qualifier not in (left.binding, right.binding):
                    raise UnknownColumnError(str(ref), [left.binding, right.binding])
                if ref.name not in scope.schema:
                    raise UnknownColumnError(str(ref), scope.schema.column_names())
                return xp.Attr(f"{ref.qualifier}.{ref.name}")
            in_left = ref.name in left.schema
            in_right = ref.name in right.schema
            if in_left and in_right:
                raise SemanticError(
                    f"ambiguous column {ref.name!r}: qualify with "
                    f"{left.binding} or {right.binding}"
                )
            if in_left:
                return xp.Attr(f"{left.binding}.{ref.name}")
            if in_right:
                return xp.Attr(f"{right.binding}.{ref.name}")
            raise UnknownColumnError(
                ref.name, left.schema.column_names() + right.schema.column_names()
            )

        return self._convert_ast(node, resolve)

    def _infer_join_type(
        self, node: ast.Expr, left: _Scope, right: _Scope
    ) -> ColumnType:
        def lookup(ref: ast.ColumnRef) -> ColumnType:
            if ref.qualifier == left.binding or (
                ref.qualifier is None and ref.name in left.schema
            ):
                return left.schema.column(ref.name).ctype
            return right.schema.column(ref.name).ctype

        return _infer_ast_type(node, lookup)

    def _join_expr_is_temporal(
        self, expr: xp.ScalarExpr, left: _Scope, right: _Scope
    ) -> bool:
        for attribute in expr.attrs():
            binding, _, column = attribute.partition(".")
            scope = left if binding == left.binding else right
            col = scope.schema.get(column)
            if col is not None and col.is_temporal:
                return True
        return False

    # -- shared expression helpers ------------------------------------------------

    def _convert_scalar(
        self, node: ast.Expr, scope: _Scope, allow_qualifier: bool = False
    ) -> xp.ScalarExpr:
        """Convert an AST expression to a ScalarExpr over input column names."""

        def resolve(ref: ast.ColumnRef):
            if ref.qualifier is not None:
                if not allow_qualifier or ref.qualifier != scope.binding:
                    raise UnknownColumnError(str(ref), scope.schema.column_names())
            if ref.name not in scope.schema:
                raise UnknownColumnError(ref.name, scope.schema.column_names())
            return xp.Attr(ref.name)

        return self._convert_ast(node, resolve)

    def _convert_predicate(self, node: ast.Expr, scope: _Scope) -> xp.ScalarExpr:
        return self._convert_scalar(node, scope)

    def _convert_ast(self, node: ast.Expr, resolve) -> xp.ScalarExpr:
        if isinstance(node, ast.ColumnRef):
            return resolve(node)
        if isinstance(node, ast.NumberLit):
            return xp.Const(node.value)
        if isinstance(node, ast.BoolLit):
            return xp.Const(1 if node.value else 0)
        if isinstance(node, ast.StringLit):
            return xp.Func("LITERAL", (xp.Const(hash(node.value)),))
        if isinstance(node, ast.BinaryOp):
            left = self._convert_ast(node.left, resolve)
            right = self._convert_ast(node.right, resolve)
            if node.op in _PREDICATE_OPS:
                return xp.Func(_predicate_func(node.op), (left, right))
            return xp.binary(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._convert_ast(node.operand, resolve)
            if node.op == "NOT":
                return xp.Func("NOT", (operand,))
            return xp.unary(node.op, operand)
        if isinstance(node, ast.FuncCall):
            if node.name in AGGREGATE_FUNCTIONS:
                raise SemanticError(
                    f"aggregate {node.name} is not allowed in this clause"
                )
            if node.name not in _SCALAR_FUNCS:
                raise SemanticError(
                    f"unknown scalar function {node.name!r}; known: "
                    f"{', '.join(sorted(_SCALAR_FUNCS))}"
                )
            args = tuple(self._convert_ast(arg, resolve) for arg in node.args)
            return xp.Func(node.name, args)
        raise SemanticError(f"unsupported expression {node!r}")

    def _expr_is_temporal(self, expr: xp.ScalarExpr, scope: _Scope) -> bool:
        for attribute in expr.attrs():
            column = scope.schema.get(attribute)
            if column is not None and column.is_temporal:
                return True
        return False

    def _infer_type(
        self, node: ast.Expr, scope: _Scope, extra: Optional[Dict] = None
    ) -> ColumnType:
        def lookup(ref: ast.ColumnRef) -> ColumnType:
            if extra and ref.name in extra:
                return extra[ref.name].ctype
            column = scope.schema.get(ref.name)
            if column is None:
                raise UnknownColumnError(ref.name, scope.schema.column_names())
            return column.ctype

        return _infer_ast_type(node, lookup)


# ---------------------------------------------------------------------------
# Module-level helpers
# ---------------------------------------------------------------------------


def _predicate_func(op: str) -> str:
    return {
        "=": "EQ",
        "<>": "NE",
        "<": "LT",
        "<=": "LE",
        ">": "GT",
        ">=": "GE",
        "AND": "AND",
        "OR": "OR",
    }[op]


def _cnf_conjuncts(node: ast.Expr) -> List[ast.Expr]:
    """Flatten top-level ANDs into a conjunct list."""
    if isinstance(node, ast.BinaryOp) and node.op == "AND":
        return _cnf_conjuncts(node.left) + _cnf_conjuncts(node.right)
    return [node]


def _output_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    return _expr_name(item.expr, f"expr_{index}")


def _expr_name(expr: ast.Expr, fallback: str) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        if len(expr.args) == 1 and isinstance(expr.args[0], ast.ColumnRef):
            return f"{expr.name.lower()}_{expr.args[0].name}"
        return expr.name.lower()
    return fallback


def _substitute_lineage(
    expr: xp.ScalarExpr, mapping: Dict[str, Optional[xp.ScalarExpr]]
) -> Optional[xp.ScalarExpr]:
    """Rewrite ``expr`` over input columns into base-stream attributes.

    Returns None when any referenced column has no lineage (or is unknown
    to the mapping) — i.e. the value is not a pure function of the base
    stream tuple.
    """
    if isinstance(expr, xp.Attr):
        if expr.name not in mapping:
            return None
        return mapping[expr.name]
    if isinstance(expr, xp.Const):
        return expr
    if isinstance(expr, xp.Binary):
        left = _substitute_lineage(expr.left, mapping)
        right = _substitute_lineage(expr.right, mapping)
        if left is None or right is None:
            return None
        return xp.binary(expr.op, left, right)
    if isinstance(expr, xp.Unary):
        operand = _substitute_lineage(expr.operand, mapping)
        if operand is None:
            return None
        return xp.unary(expr.op, operand)
    if isinstance(expr, xp.Func):
        args = []
        for arg in expr.args:
            substituted = _substitute_lineage(arg, mapping)
            if substituted is None:
                return None
            args.append(substituted)
        return xp.Func(expr.name, tuple(args))
    return None


def _common_lineage(lineages: List[Optional[xp.ScalarExpr]]) -> Optional[xp.ScalarExpr]:
    """Shared lineage across union branches (None unless all identical)."""
    first = lineages[0]
    if first is None:
        return None
    if all(lineage == first for lineage in lineages[1:]):
        return first
    return None


def _schema_from_columns(name: str, columns: List[OutputColumn]) -> StreamSchema:
    return StreamSchema(
        name,
        [
            Column(
                column.name,
                column.ctype,
                Ordering.INCREASING if column.is_temporal else Ordering.NONE,
            )
            for column in columns
        ],
    )


def _aggregate_result_type(func: str, arg_type: ColumnType) -> ColumnType:
    if func.startswith("APPROX_"):
        func = func[len("APPROX_") :]
    override = _UDAF_RESULT_TYPES.get(func)
    if override is not None:
        if callable(override):
            return override(arg_type)
        return override
    if func == "COUNT":
        return UINT64
    if func == "SUM":
        return UINT64 if arg_type.is_integral() else FLOAT
    if func == "AVG":
        return FLOAT
    # MIN / MAX / OR_AGGR / AND_AGGR (and default UDAFs) preserve the
    # argument type.
    return arg_type


def _infer_ast_type(node: ast.Expr, lookup) -> ColumnType:
    if isinstance(node, ast.ColumnRef):
        return lookup(node)
    if isinstance(node, ast.NumberLit):
        if isinstance(node.value, float):
            return FLOAT
        if node.value < 256:
            return UINT8
        if node.value < 65536:
            return UINT16
        if node.value < 2**32:
            return UINT
        return UINT64
    if isinstance(node, ast.BoolLit):
        return BOOL
    if isinstance(node, ast.StringLit):
        from .types import STRING

        return STRING
    if isinstance(node, ast.BinaryOp):
        if node.op in _PREDICATE_OPS:
            return BOOL
        left = _infer_ast_type(node.left, lookup)
        right = _infer_ast_type(node.right, lookup)
        return merge_numeric(left, right)
    if isinstance(node, ast.UnaryOp):
        if node.op == "NOT":
            return BOOL
        return _infer_ast_type(node.operand, lookup)
    if isinstance(node, ast.FuncCall):
        if node.name in AGGREGATE_FUNCTIONS:
            if node.args and not isinstance(node.args[0], ast.Star):
                arg_type = _infer_ast_type(node.args[0], lookup)
            else:
                arg_type = UINT64
            return _aggregate_result_type(node.name, arg_type)
        return UINT64
    if isinstance(node, ast.NullLit):
        return UINT
    raise SemanticError(f"cannot type expression {node!r}")
