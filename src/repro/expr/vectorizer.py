"""Lower canonical scalar expressions to NumPy array programs.

The row evaluator (:mod:`repro.expr.evaluator`) compiles a
:class:`~repro.expr.expressions.ScalarExpr` into a ``row -> value``
closure; this module compiles the *same* trees into ``columns -> array``
programs for the columnar engine.  A compiled vector evaluator takes a
mapping of column name to NumPy array (plus the batch length, so constant
expressions can broadcast) and returns either an array of ``length``
values or a plain scalar when the expression is constant — callers
materialize with :func:`materialize` where a real array is required.

Semantics mirror the row evaluator exactly:

* ``/`` is floor division on integer operands and true division when
  either side is a float (GSQL's ``time/60`` epoch arithmetic);
* the analyzer's predicate functions (EQ/NE/LT/LE/GT/GE/AND/OR/NOT)
  become element-wise comparisons and boolean masks;
* ``IN`` over an all-constant member list lowers to :func:`numpy.isin`
  against a precomputed constant array (the row engine's frozenset
  optimization); non-constant members fall back to an OR of equalities.

For outer-join repair the module also lowers *padded* projections
(:func:`vectorize_padded_output`): the SELECT list of a join evaluated
over rows where one side is entirely NULL.  The row engine realizes SQL's
NULL propagation operationally — it evaluates the projection over a
merged row whose padded side holds ``None`` and converts any
``TypeError`` into NULL — so the padded lowering partial-evaluates the
expression tree at compile time under the assumption "every attribute of
the padded side is None", reproducing exactly the values Python would
have produced: arithmetic and ordered comparisons on NULL become NULL,
``=``/``<>`` against NULL become plain booleans (Python's ``==``), and
the boolean connectives see NULL as falsy.

Every scalar function the analyzer accepts (the row evaluator's table)
lowers here.  Anything else raises :class:`UnsupportedExpression` — an
operator or function no analyzed query contains, or a partitioning
expression a splitter cannot vectorize.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Union

import numpy as np

from .expressions import Attr, Binary, Const, Func, ScalarExpr, Unary

Columns = Mapping[str, np.ndarray]
ArrayLike = Union[np.ndarray, int, float, bool]
VectorEvaluator = Callable[[Columns, int], ArrayLike]


class UnsupportedExpression(ValueError):
    """The expression has no vectorized lowering."""


def materialize(value: ArrayLike, length: int) -> np.ndarray:
    """Turn a vector-evaluator result into a real array of ``length``."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    return np.full(length, value)


def _is_float(value: ArrayLike) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f"
    return isinstance(value, (float, np.floating))


def _gsql_div(left: ArrayLike, right: ArrayLike) -> ArrayLike:
    """GSQL division: floor for integer operands, true for floats."""
    if _is_float(left) or _is_float(right):
        return np.true_divide(left, right)
    return np.floor_divide(left, right)


_BINARY_OPS: Dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _gsql_div,
    "%": np.mod,  # same sign convention as Python's %
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
}


def _as_bool(value: ArrayLike) -> ArrayLike:
    """Python truthiness, element-wise (non-zero is true)."""
    if isinstance(value, np.ndarray):
        return value.astype(bool)
    return bool(value)


def _and(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    return np.logical_and(_as_bool(a), _as_bool(b))


def _or(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    return np.logical_or(_as_bool(a), _as_bool(b))


def _not(a: ArrayLike) -> ArrayLike:
    return np.logical_not(_as_bool(a))


_SIMPLE_FUNCS: Dict[str, Callable] = {
    "ABS": np.abs,
    "MIN2": np.minimum,
    "MAX2": np.maximum,
    "EQ": np.equal,
    "NE": np.not_equal,
    "LT": np.less,
    "LE": np.less_equal,
    "GT": np.greater,
    "GE": np.greater_equal,
    "AND": _and,
    "OR": _or,
    "NOT": _not,
}


def vectorize_expr(expr: ScalarExpr) -> VectorEvaluator:
    """Compile ``expr`` into a function ``(columns, length) -> array``."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda columns, length: value
    if isinstance(expr, Attr):
        name = expr.name
        return lambda columns, length: columns[name]
    if isinstance(expr, Binary):
        try:
            op = _BINARY_OPS[expr.op]
        except KeyError:
            raise UnsupportedExpression(
                f"no vectorized lowering for operator {expr.op!r}"
            ) from None
        left = vectorize_expr(expr.left)
        right = vectorize_expr(expr.right)
        return lambda columns, length: op(
            left(columns, length), right(columns, length)
        )
    if isinstance(expr, Unary):
        operand = vectorize_expr(expr.operand)
        if expr.op == "-":
            return lambda columns, length: np.negative(operand(columns, length))
        if expr.op == "~":
            return lambda columns, length: np.invert(operand(columns, length))
        raise UnsupportedExpression(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Func):
        return _vectorize_func(expr)
    raise UnsupportedExpression(f"cannot vectorize {expr!r}")


def _vectorize_func(expr: Func) -> VectorEvaluator:
    if expr.name == "LITERAL":
        (arg,) = expr.args
        return vectorize_expr(arg)
    if expr.name == "IN":
        return _vectorize_in(expr)
    try:
        func = _SIMPLE_FUNCS[expr.name]
    except KeyError:
        raise UnsupportedExpression(
            f"no vectorized lowering for function {expr.name!r}"
        ) from None
    args = [vectorize_expr(arg) for arg in expr.args]
    if len(args) == 1:
        (single,) = args
        return lambda columns, length: func(single(columns, length))
    if len(args) == 2:
        first, second = args
        return lambda columns, length: func(
            first(columns, length), second(columns, length)
        )
    return lambda columns, length: func(
        *(arg(columns, length) for arg in args)
    )


def _vectorize_in(expr: Func) -> VectorEvaluator:
    if not expr.args:
        raise UnsupportedExpression("IN needs a needle expression")
    needle = vectorize_expr(expr.args[0])
    members = expr.args[1:]
    if all(isinstance(member, Const) for member in members):
        values = np.asarray([member.value for member in members])
        return lambda columns, length: np.isin(needle(columns, length), values)
    member_fns = [vectorize_expr(member) for member in members]

    def evaluate(columns: Columns, length: int) -> ArrayLike:
        target = needle(columns, length)
        result: ArrayLike = False
        for member in member_fns:
            result = np.logical_or(result, np.equal(target, member(columns, length)))
        return result

    return evaluate


def vectorize_key(exprs: Sequence[ScalarExpr]) -> Callable[[Columns, int], List[np.ndarray]]:
    """Compile expressions into a function producing materialized key arrays.

    The columnar analogue of :func:`repro.expr.evaluator.compile_key`: the
    result feeds group-by factorization and the vectorized hash splitter.
    """
    evaluators = [vectorize_expr(expr) for expr in exprs]

    def keys(columns: Columns, length: int) -> List[np.ndarray]:
        return [
            materialize(evaluator(columns, length), length)
            for evaluator in evaluators
        ]

    return keys


def vectorize_predicate(expr: ScalarExpr) -> Callable[[Columns, int], np.ndarray]:
    """Compile a predicate into a boolean-mask program."""
    evaluator = vectorize_expr(expr)

    def mask(columns: Columns, length: int) -> np.ndarray:
        return materialize(evaluator(columns, length), length).astype(bool)

    return mask


# -- padded (outer-join) projection lowering -----------------------------------

#: Compile-time lattice values for padded lowering.  ``_NULL`` marks a
#: subexpression whose row-engine value is Python ``None`` on every padded
#: row (a padded attribute, or NULL flowing through LITERAL); ``_ERROR``
#: marks one whose row-engine evaluation raises TypeError (arithmetic or
#: an ordered comparison on None) — the row engine's padded projection
#: catches that and emits NULL for the whole output column.
_NULL = object()
_ERROR = object()


def null_column(length: int) -> np.ndarray:
    """An all-NULL output column (object dtype, so None survives concat)."""
    return np.full(length, None, dtype=object)


def vectorize_padded_output(
    expr: ScalarExpr, is_padded: Callable[[str], bool]
) -> VectorEvaluator:
    """Compile one SELECT output for rows whose padded side is all-NULL.

    ``is_padded`` classifies attribute names (qualified ``alias.column``)
    as belonging to the NULL-padded join side.  The returned evaluator
    reads only live-side columns; outputs the row engine would have
    resolved to NULL (either a None value or a caught TypeError) become
    object-dtype None columns.
    """
    lowered = _lower_padded(expr, is_padded)
    if lowered is _NULL or lowered is _ERROR:
        return lambda columns, length: null_column(length)
    return lowered


def _lower_padded(expr: ScalarExpr, is_padded: Callable[[str], bool]):
    """Partial evaluation under "padded attributes are None".

    Returns ``_NULL``, ``_ERROR``, or a :data:`VectorEvaluator` over the
    live columns.  The distinction between ``_NULL`` and ``_ERROR``
    matters mid-tree: ``None`` is a legitimate *value* for equality tests
    and boolean connectives (``None == x`` is False, ``bool(None)`` is
    False), while TypeError poisons the entire output expression because
    the row engine's catch sits at the projection's top level.
    """
    if isinstance(expr, Const):
        if expr.value is None:
            return _NULL
        return vectorize_expr(expr)
    if isinstance(expr, Attr):
        if is_padded(expr.name):
            return _NULL
        return vectorize_expr(expr)
    if isinstance(expr, Binary):
        left = _lower_padded(expr.left, is_padded)
        right = _lower_padded(expr.right, is_padded)
        if left is _ERROR or right is _ERROR:
            return _ERROR
        if left is _NULL or right is _NULL:
            return _ERROR  # every _BINARY_OPS operator TypeErrors on None
        try:
            op = _BINARY_OPS[expr.op]
        except KeyError:
            raise UnsupportedExpression(
                f"no vectorized lowering for operator {expr.op!r}"
            ) from None
        return lambda columns, length: op(
            left(columns, length), right(columns, length)
        )
    if isinstance(expr, Unary):
        operand = _lower_padded(expr.operand, is_padded)
        if operand is _ERROR or operand is _NULL:
            return _ERROR  # -None / ~None raise TypeError
        if expr.op == "-":
            return lambda columns, length: np.negative(operand(columns, length))
        if expr.op == "~":
            return lambda columns, length: np.invert(operand(columns, length))
        raise UnsupportedExpression(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Func):
        return _lower_padded_func(expr, is_padded)
    raise UnsupportedExpression(f"cannot vectorize {expr!r}")


def _lower_padded_func(expr: Func, is_padded: Callable[[str], bool]):
    if expr.name == "LITERAL":
        (arg,) = expr.args
        return _lower_padded(arg, is_padded)
    if expr.name == "IN":
        return _lower_padded_in(expr, is_padded)
    args = [_lower_padded(arg, is_padded) for arg in expr.args]
    # The row evaluator computes arguments eagerly, so a TypeError in any
    # argument poisons the call regardless of the function's semantics.
    if any(arg is _ERROR for arg in args):
        return _ERROR
    name = expr.name
    if name in ("EQ", "NE"):
        first, second = args
        if first is _NULL or second is _NULL:
            # Python's == / != against None are plain booleans.
            equal = first is _NULL and second is _NULL
            value = equal if name == "EQ" else not equal
            return lambda columns, length: value
        func = _SIMPLE_FUNCS[name]
        return lambda columns, length: func(
            first(columns, length), second(columns, length)
        )
    if name == "AND":
        first, second = args
        if first is _NULL or second is _NULL:
            return lambda columns, length: False  # bool(None) is False
        return lambda columns, length: _and(
            first(columns, length), second(columns, length)
        )
    if name == "OR":
        first, second = args
        if first is _NULL and second is _NULL:
            return lambda columns, length: False
        if first is _NULL:
            return lambda columns, length: _as_bool(second(columns, length))
        if second is _NULL:
            return lambda columns, length: _as_bool(first(columns, length))
        return lambda columns, length: _or(
            first(columns, length), second(columns, length)
        )
    if name == "NOT":
        (operand,) = args
        if operand is _NULL:
            return lambda columns, length: True  # not None
        return lambda columns, length: _not(operand(columns, length))
    if any(arg is _NULL for arg in args):
        # ABS/MIN2/MAX2 and ordered comparisons all TypeError on None.
        return _ERROR
    try:
        func = _SIMPLE_FUNCS[name]
    except KeyError:
        raise UnsupportedExpression(
            f"no vectorized lowering for function {name!r}"
        ) from None
    return lambda columns, length: func(
        *(arg(columns, length) for arg in args)
    )


def _lower_padded_in(expr: Func, is_padded: Callable[[str], bool]):
    if not expr.args:
        raise UnsupportedExpression("IN needs a needle expression")
    needle = _lower_padded(expr.args[0], is_padded)
    members = [_lower_padded(member, is_padded) for member in expr.args[1:]]
    if needle is _ERROR or any(member is _ERROR for member in members):
        return _ERROR
    if needle is _NULL:
        # ``None in values`` — membership uses ==, so only a None member
        # can match.
        value = any(member is _NULL for member in members)
        return lambda columns, length: value
    live = [member for member in members if member is not _NULL]
    if all(isinstance(member, Const) for member in expr.args[1:]):
        values = np.asarray(
            [member.value for member in expr.args[1:] if member.value is not None]
        )
        return lambda columns, length: np.isin(needle(columns, length), values)

    def evaluate(columns: Columns, length: int) -> ArrayLike:
        target = needle(columns, length)
        result: ArrayLike = False
        for member in live:
            result = np.logical_or(result, np.equal(target, member(columns, length)))
        return result

    return evaluate
