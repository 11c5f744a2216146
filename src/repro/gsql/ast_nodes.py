"""Abstract syntax tree produced by the GSQL parser.

The parse AST is deliberately "syntactic": column references are unresolved
names, expressions are untyped, and aggregates are plain function calls.
The analyzer (:mod:`repro.gsql.analyzer`) turns this into typed, resolved
query nodes and canonical scalar expressions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for parse-level expressions."""

    def walk(self):
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference such as ``srcIP`` or ``S1.tb``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class NumberLit(Expr):
    """An integer or float literal; hex literals are stored as ints."""

    value: Union[int, float]

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class StringLit(Expr):
    value: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class NullLit(Expr):
    def __str__(self) -> str:
        return "NULL"


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — only legal inside ``COUNT(*)``."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operator application. ``op`` is the lexical operator text
    (``+ - * / % & | ^ << >> = <> < <= > >= AND OR``)."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operator: ``-``, ``~`` or ``NOT``."""

    op: str
    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call — either an aggregate (COUNT, SUM, OR_AGGR, ...) or a
    scalar function. The analyzer decides which, by name."""

    name: str
    args: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT_OUTER = "left outer"
    RIGHT_OUTER = "right outer"
    FULL_OUTER = "full outer"


@dataclass(frozen=True)
class SelectItem:
    """One item in the SELECT list: an expression and an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause source: a stream or named-query reference plus alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this source is visible under inside the query."""
        return self.alias or self.name

    def __str__(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass(frozen=True)
class GroupByItem:
    """One GROUP BY entry, e.g. ``time/60 as tb`` or plain ``srcIP``."""

    expr: Expr
    alias: Optional[str] = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class WindowClause:
    """A sliding-window declaration: ``RANGE <panes> SLIDE <panes>``.

    Both counts are in epoch panes (the query's temporal group-by is the
    pane index); ``range_panes == slide_panes`` degenerates to the
    paper's tumbling windows.
    """

    range_panes: int
    slide_panes: int

    def __str__(self) -> str:
        return f"RANGE {self.range_panes} SLIDE {self.slide_panes}"


@dataclass(frozen=True)
class AccuracyClause:
    """An accuracy declaration: ``ERROR <epsilon> CONFIDENCE <conf>``.

    Permits (never forces) the optimizer to answer the query's APPROX_*
    aggregates from sketches, with absolute error at most
    ``epsilon * N`` at probability ``confidence`` (``delta`` is the
    complementary failure rate).
    """

    epsilon: float
    confidence: float

    @property
    def delta(self) -> float:
        return 1.0 - self.confidence

    def __str__(self) -> str:
        return f"ERROR {self.epsilon} CONFIDENCE {self.confidence}"


@dataclass
class SelectStmt:
    """A single SELECT query (no set operations).

    ``tables`` holds one entry for plain selection/aggregation and two for
    a join; ``join_type`` is meaningful only with two tables.  Following
    Gigascope convention, join predicates live in the WHERE clause (the
    paper's examples all use WHERE-style joins), but ``JOIN ... ON`` syntax
    is also accepted and folded into ``where``.
    """

    items: List[SelectItem]
    tables: List[TableRef]
    where: Optional[Expr] = None
    group_by: List[GroupByItem] = field(default_factory=list)
    having: Optional[Expr] = None
    join_type: JoinType = JoinType.INNER
    window: Optional[WindowClause] = None
    accuracy: Optional[AccuracyClause] = None

    @property
    def is_join(self) -> bool:
        return len(self.tables) == 2

    def __str__(self) -> str:
        parts = ["SELECT " + ", ".join(str(i) for i in self.items)]
        if self.is_join:
            joiner = (
                " JOIN "
                if self.join_type is JoinType.INNER
                else f" {self.join_type.value.upper()} JOIN "
            )
            parts.append("FROM " + joiner.join(str(t) for t in self.tables))
        else:
            parts.append("FROM " + ", ".join(str(t) for t in self.tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(g) for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.window is not None:
            parts.append(str(self.window))
        if self.accuracy is not None:
            parts.append(str(self.accuracy))
        return " ".join(parts)


@dataclass
class UnionStmt:
    """A UNION of two or more SELECT statements (stream union / merge)."""

    selects: List[SelectStmt]

    def __str__(self) -> str:
        return " UNION ".join(str(s) for s in self.selects)


Statement = Union[SelectStmt, UnionStmt]


@dataclass
class DefineStmt:
    """``DEFINE QUERY name AS <statement>`` — a named view in the DAG."""

    name: str
    body: Statement

    def __str__(self) -> str:
        return f"DEFINE QUERY {self.name} AS {self.body}"
