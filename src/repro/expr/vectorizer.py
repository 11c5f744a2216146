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
  optimization); non-constant members fall back to an OR of equalities;
* ints compute as Python's do: an arithmetic or bitwise operator whose
  operands are all ints, one of them a bool or an array narrower than 64
  bits (a trace column at its header width), computes on ``int64``
  (``~True`` is -2, a ``uint16`` length minus 100 000 is negative), while
  ``&``/``|``/``^`` keep bool with bool a bool.  Comparisons and ``IN``
  read a narrow column as it is: NumPy compares it exactly with any int;
* ``MIN2``/``MAX2`` return one of their operands, as ``min``/``max`` do:
  two ints of different widths meet in ``int64``, and over an int and a
  float operand each row keeps its winner's type.

For outer-join repair the module also compiles *padded* projections
(:func:`vectorize_padded_output`): the SELECT list of a join evaluated
over rows where one side is entirely NULL.  It applies the row
projection's own rule to arrays — the padded side's columns are all-None
object arrays and a ``TypeError`` makes the output NULL — which gives
Python's values because NumPy's object loops call the Python operators:
``None == x`` is False, ``bool(None)`` is False, and ``None + 1`` or
``None < 1`` raise ``TypeError``.

Every scalar function the analyzer accepts (:data:`SCALAR_FUNCTIONS`)
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


def _gsql_div(left: ArrayLike, right: ArrayLike, **kwargs) -> ArrayLike:
    """GSQL division: floor for integer operands, true for floats."""
    if _is_float(left) or _is_float(right):
        return np.true_divide(left, right)
    return np.floor_divide(left, right, **kwargs)


#: How an operand stands to Python's ints: an int ``int64`` holds as it
#: is (a Python int, an int64 array), an integer array narrower than 64
#: bits, or a bool.  Anything else (a float, an object column, uint64,
#: which keeps NumPy's own promotion) is no int, class 0.
_WIDE, _NARROW, _BOOL = 1, 2, 4
_INT_CLASS = {
    np.dtype(np.int64): _WIDE,
    np.dtype(np.bool_): _BOOL,
    **{
        np.dtype(narrow): _NARROW
        for narrow in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32)
    },
}
_SCALAR_CLASS = {int: _WIDE, bool: _BOOL}


def _int_class(value: ArrayLike) -> int:
    dtype = getattr(value, "dtype", None)
    if dtype is None:
        return _SCALAR_CLASS.get(type(value), 0)
    return _INT_CLASS.get(dtype, 0)


def _on_ints(op: Callable, as_is=((_WIDE, _WIDE),)) -> Callable:
    """``op`` as Python computes it on ints: on ``int64`` when both
    operands are ints and one is a bool or narrow (``True + True`` is 2,
    a ``uint16`` column minus 100 000 goes negative).  The ufunc casts
    as it loops, so no widened copy of a column is made.  Operand
    classes in ``as_is`` keep NumPy's own result."""

    def apply(left: ArrayLike, right: ArrayLike) -> ArrayLike:
        classes = _int_class(left), _int_class(right)
        if all(classes) and classes not in as_is:
            return op(left, right, dtype=np.int64)
        return op(left, right)

    return apply


#: Under ``& | ^`` bool with bool stays a bool, as in Python.
_BITWISE_AS_IS = ((_WIDE, _WIDE), (_BOOL, _BOOL))


def _unary(op: Callable) -> Callable:
    """A unary operator on a bool or a narrow int computes on ``int64``
    (``~True`` is -2, ``-len`` is negative)."""

    def apply(operand: ArrayLike) -> ArrayLike:
        if _int_class(operand) > _WIDE:
            return op(operand, dtype=np.int64)
        return op(operand)

    return apply


_BINARY_OPS: Dict[str, Callable] = {
    "+": _on_ints(np.add),
    "-": _on_ints(np.subtract),
    "*": _on_ints(np.multiply),
    "/": _on_ints(_gsql_div),
    "%": _on_ints(np.mod),  # same sign convention as Python's %
    "&": _on_ints(np.bitwise_and, _BITWISE_AS_IS),
    "|": _on_ints(np.bitwise_or, _BITWISE_AS_IS),
    "^": _on_ints(np.bitwise_xor, _BITWISE_AS_IS),
    "<<": _on_ints(np.left_shift),
    ">>": _on_ints(np.right_shift),
}

_UNARY_OPS: Dict[str, Callable] = {"-": _unary(np.negative), "~": _unary(np.invert)}


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


def _pick(same_dtype: Callable, beats: Callable) -> Callable:
    """MIN2/MAX2 as Python's ``min``/``max``: ``b`` only where it strictly
    ``beats`` ``a`` (the first argument wins ties), and each row keeps its
    winner's type.  NumPy's ``minimum``/``maximum`` would promote an int
    and a float operand to a float column, so mixed dtypes pick into an
    ``object`` column instead."""

    def pick(a: ArrayLike, b: ArrayLike) -> ArrayLike:
        left, right = np.asarray(a), np.asarray(b)
        if left.dtype == right.dtype:
            return same_dtype(a, b)
        if {_int_class(left), _int_class(right)} <= {_WIDE, _NARROW}:
            # Ints of two widths: both as int64, which holds either.
            return same_dtype(a, b, dtype=np.int64)
        picked = np.where(
            beats(right, left), right.astype(object), left.astype(object)
        )
        return picked if picked.ndim else picked[()]

    return pick


_SIMPLE_FUNCS: Dict[str, Callable] = {
    "ABS": np.abs,
    "MIN2": _pick(np.minimum, np.less),
    "MAX2": _pick(np.maximum, np.greater),
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

#: Every scalar function GSQL accepts (the analyzer checks calls against
#: it): each lowers here, and the row evaluator defines each one too.
SCALAR_FUNCTIONS = frozenset(_SIMPLE_FUNCS) | {"IN", "LITERAL"}


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
        try:
            unary = _UNARY_OPS[expr.op]
        except KeyError:
            raise UnsupportedExpression(
                f"unknown unary operator {expr.op!r}"
            ) from None
        operand = vectorize_expr(expr.operand)
        return lambda columns, length: unary(operand(columns, length))
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


def null_column(length: int) -> np.ndarray:
    """An all-NULL output column (object dtype, so None survives concat)."""
    return np.full(length, None, dtype=object)


def vectorize_padded_output(
    expr: ScalarExpr, is_padded: Callable[[str], bool]
) -> VectorEvaluator:
    """Compile one SELECT output for rows whose padded side is all-NULL.

    ``is_padded`` classifies attribute names (qualified ``alias.column``)
    as belonging to the NULL-padded join side.  The row projection's rule
    applied to arrays: every padded attribute reads an all-None column,
    and an evaluation that raises ``TypeError`` makes the output NULL.
    """
    evaluate = vectorize_expr(expr)
    padded = [name for name in expr.attrs() if is_padded(name)]

    def project(columns: Columns, length: int) -> ArrayLike:
        nulls = null_column(length)
        merged = {**columns, **dict.fromkeys(padded, nulls)}
        try:
            return evaluate(merged, length)
        except TypeError:
            return null_column(length)

    return project
