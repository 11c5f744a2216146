"""The vectorized expression compiler agrees with the row evaluator.

Every lowered expression must produce, element-wise, exactly the values the
row-at-a-time evaluator produces — that equivalence is what makes the
columnar backend a drop-in replacement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import (
    UnsupportedExpression,
    compile_expr,
    materialize,
    null_column,
    parse_scalar,
    vectorize_expr,
    vectorize_key,
    vectorize_padded_output,
    vectorize_predicate,
)
from repro.expr.evaluator import _SCALAR_FUNCS
from repro.expr.expressions import Attr, Binary, Const, Func, Unary
from repro.expr.vectorizer import (
    _BINARY_OPS,
    _SIMPLE_FUNCS,
    _UNARY_OPS,
    SCALAR_FUNCTIONS,
)

COLUMNS = {
    "srcIP": np.asarray([0x0A000001, 0x0A0000F3, 0x0A000010, 0x0A000001]),
    "destIP": np.asarray([0xC0A80001, 0xC0A80002, 0xC0A80001, 0xC0A80003]),
    "len": np.asarray([40, 1500, 732, 40]),
    "time": np.asarray([0, 59, 60, 121]),
    "flags": np.asarray([0x02, 0x29, 0x10, 0x18]),
}
LENGTH = 4
ROWS = [
    {name: int(values[i]) for name, values in COLUMNS.items()} for i in range(LENGTH)
]


def assert_matches_row_engine(expr):
    row_fn = compile_expr(expr)
    vec = materialize(vectorize_expr(expr)(COLUMNS, LENGTH), LENGTH)
    expected = [row_fn(row) for row in ROWS]
    assert len(vec) == LENGTH
    for got, want in zip(vec.tolist(), expected):
        assert got == want, f"{expr}: {got} != {want}"


@pytest.mark.parametrize(
    "text",
    [
        "srcIP",
        "17",
        "srcIP & 0xFFF0",
        "time / 60",
        "time % 7",
        "len * 2 + 1",
        "len - time",
        "srcIP | destIP",
        "srcIP ^ destIP",
        "len << 2",
        "srcIP >> 4",
        "-len",
        "~flags",
        "ABS(len - 1000)",
        "MIN2(len, 100)",
        "MAX2(len, 100)",
    ],
)
def test_arithmetic_matches_row_engine(text):
    assert_matches_row_engine(parse_scalar(text))


@pytest.mark.parametrize(
    "text,bits",
    [
        ("MIN2(len, len * 1.5) & 1", [0, 1, 0]),
        ("MAX2(len, len * 0.5) & 1", [0, 1, 0]),
        ("MIN2(len, len * 0.5)", None),
        ("MAX2(len * 1.5, len)", None),
        ("MIN2(1, 2.5)", None),
    ],
)
def test_min2_max2_keep_each_rows_winner_type(text, bits):
    """``min``/``max`` return one of their operands, so over an int and a
    float each row keeps its winner's type (the first operand on ties):
    a bitwise operator after MIN2 then sees ints, where a column promoted
    to float would make ``bitwise_and`` raise."""
    expr = parse_scalar(text)
    lens = [0, 3, 40]
    row_fn = compile_expr(expr)
    want = [row_fn({"len": value}) for value in lens]
    got = materialize(
        vectorize_expr(expr)({"len": np.asarray(lens)}, len(lens)), len(lens)
    ).tolist()
    assert got == want
    assert [type(value) for value in got] == [type(value) for value in want]
    if bits is not None:
        assert want == bits


@pytest.mark.parametrize(
    "func,args",
    [
        ("EQ", ("len", 40)),
        ("NE", ("len", 40)),
        ("LT", ("len", 700)),
        ("LE", ("len", 40)),
        ("GT", ("len", 40)),
        ("GE", ("len", 1500)),
        ("NOT", (("EQ", ("len", 40)),)),
    ],
)
def test_predicates_match_row_engine(func, args):
    def build(spec):
        if isinstance(spec, tuple):
            name, inner = spec
            return Func(name, tuple(build(a) for a in inner))
        if isinstance(spec, str):
            return Attr(spec)
        return Const(spec)

    assert_matches_row_engine(build((func, args)))


def test_boolean_connectives():
    low = Func("GT", (Attr("len"), Const(100)))
    match = Func("EQ", (Attr("flags"), Const(0x29)))
    assert_matches_row_engine(Func("AND", (low, match)))
    assert_matches_row_engine(Func("OR", (low, match)))


def test_in_constant_members_uses_isin():
    expr = Func("IN", (Attr("len"), Const(40), Const(732)))
    assert_matches_row_engine(expr)
    mask = vectorize_predicate(expr)(COLUMNS, LENGTH)
    assert mask.dtype == bool
    assert mask.tolist() == [True, False, True, True]


def test_in_expression_members_falls_back_to_equality_chain():
    expr = Func("IN", (Attr("len"), Attr("time"), Const(1500)))
    assert_matches_row_engine(expr)


def test_constant_expression_broadcasts():
    fn = vectorize_expr(parse_scalar("2 * 30"))
    value = fn(COLUMNS, LENGTH)
    assert materialize(value, LENGTH).tolist() == [60] * 4


def test_division_on_floats_is_true_division():
    columns = {"x": np.asarray([1.0, 3.0]), "y": np.asarray([2, 4])}
    fn = vectorize_expr(parse_scalar("x / y"))
    assert fn(columns, 2).tolist() == [0.5, 0.75]


def test_vectorize_key_materializes_every_member():
    keys = vectorize_key([parse_scalar("srcIP & 0xFFF0"), parse_scalar("7")])
    first, second = keys(COLUMNS, LENGTH)
    assert len(first) == LENGTH and len(second) == LENGTH
    assert second.tolist() == [7] * LENGTH


def test_the_row_evaluator_defines_every_accepted_function():
    assert set(_SCALAR_FUNCS) == SCALAR_FUNCTIONS


@pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
def test_every_row_function_lowers(name):
    """The analyzer accepts exactly ``SCALAR_FUNCTIONS``, so each one
    must lower here, to the row engine's values."""
    if name in ("ABS", "NOT", "LITERAL"):
        args = (Attr("len"),)
    elif name == "IN":
        args = (Attr("len"), Const(40), Const(1500))
    else:
        args = (Attr("len"), Const(732))
    assert_matches_row_engine(Func(name, args))


def test_unknown_function_raises_unsupported():
    with pytest.raises(UnsupportedExpression):
        vectorize_expr(Func("MYSTERY_UDF", (Attr("len"),)))


def test_row_engine_in_frozenset_optimization_semantics():
    # The row evaluator's constant-member IN must behave exactly like the
    # generic tuple-membership path it replaces.
    expr = Func("IN", (Attr("len"), Const(40), Const(1500.0)))
    fn = compile_expr(expr)
    assert fn({"len": 40}) is True or fn({"len": 40}) == True  # noqa: E712
    assert fn({"len": 1500}) == True  # noqa: E712  (1500 == 1500.0)
    assert fn({"len": 99}) == False  # noqa: E712


# -- padded (outer-join) projection lowering -----------------------------------

LIVE = {
    "S1.len": np.asarray([40, 1500, 732, 40]),
    "S1.time": np.asarray([0, 59, 60, 121]),
}
PADDED_NAMES = ("S2.len", "S2.time")


def _is_padded(name):
    return name.startswith("S2.")


def _padded_rows():
    """Merged qualified rows as the row engine's padded projection sees
    them: live side real values, padded side all None."""
    rows = []
    for i in range(LENGTH):
        row = {name: int(values[i]) for name, values in LIVE.items()}
        row.update({name: None for name in PADDED_NAMES})
        rows.append(row)
    return rows


def assert_matches_row_padded_projection(expr):
    row_fn = compile_expr(expr)
    expected = []
    for row in _padded_rows():
        try:
            expected.append(row_fn(row))
        except TypeError:
            expected.append(None)  # the row projection's padded catch
    vec = materialize(
        vectorize_padded_output(expr, _is_padded)(LIVE, LENGTH), LENGTH
    )
    assert len(vec) == LENGTH
    assert vec.tolist() == expected, str(expr)


@pytest.mark.parametrize(
    "expr",
    [
        Attr("S2.len"),  # bare padded attribute
        Attr("S1.len"),  # live side passes through untouched
        Binary("+", Attr("S1.len"), Attr("S2.len")),  # NULL arithmetic
        Binary("*", Attr("S2.len"), Const(2)),
        Unary("-", Attr("S2.len")),
        Func("ABS", (Binary("-", Attr("S2.len"), Const(100)),)),
        Func("MIN2", (Attr("S1.len"), Attr("S2.len"))),
        Func("EQ", (Attr("S2.len"), Attr("S1.len"))),  # None == x is False
        Func("NE", (Attr("S2.len"), Attr("S1.len"))),
        Func("EQ", (Attr("S2.len"), Attr("S2.time"))),  # None == None
        Func("GT", (Attr("S1.len"), Attr("S2.len"))),  # ordered: TypeError
        Func("AND", (Func("GT", (Attr("S1.len"), Const(100))), Attr("S2.len"))),
        Func("OR", (Attr("S2.len"), Func("GT", (Attr("S1.len"), Const(100))))),
        Func("NOT", (Attr("S2.len"),)),
        Func("IN", (Attr("S2.len"), Const(40), Const(99))),
        Func("IN", (Attr("S1.len"), Attr("S2.len"), Const(40))),
        Func(
            "AND",
            (
                Func("GT", (Attr("S2.len"), Const(0))),
                Func("GT", (Attr("S1.len"), Const(100))),
            ),
        ),  # eager row-engine args: the padded TypeError poisons the AND
    ],
    ids=str,
)
def test_padded_projection_matches_row_semantics(expr):
    assert_matches_row_padded_projection(expr)


def test_null_column_is_object_dtype_none():
    column = null_column(3)
    assert column.dtype == object
    assert column.tolist() == [None, None, None]
    # concat with a numeric column keeps the Nones intact
    merged = np.concatenate([np.asarray([1, 2]), column])
    assert merged.tolist() == [1, 2, None, None, None]


# -- random trees against the row evaluator ------------------------------------

#: Operators whose right operand must be a small non-zero constant: a
#: zero divisor or a wide shift is outside what both evaluators share.
_DIVIDING = ("/", "%", "<<", ">>")
_UNARY_FUNCS = ("ABS", "NOT")
_TREE_COLUMNS = {
    "S1.len": np.asarray([0, 3, -4, 9, 7, -9, 1, 5]),
    "S1.time": np.asarray([2, 3, 0, -1, 7, 8, -6, 5]),
    "S2.len": np.asarray([1, -3, 4, 0, 7, 2, 9, -8]),
    "S2.time": np.asarray([5, 5, -2, 6, 0, 1, 3, 4]),
}
_TREE_LENGTH = 8
_LEAVES = st.one_of(
    st.sampled_from(sorted(_TREE_COLUMNS)).map(Attr),
    st.integers(-9, 9).map(Const),
)


def _trees(depth):
    """Expression trees of at most ``depth`` levels over small ints, using
    every vectorized operator and function."""
    if depth == 0:
        return _LEAVES
    sub = _trees(depth - 1)
    divisor = st.integers(1, 3).map(Const)
    members = st.lists(st.one_of(_LEAVES, sub), min_size=1, max_size=3)
    return st.one_of(
        _LEAVES,
        st.builds(
            Binary,
            st.sampled_from(sorted(set(_BINARY_OPS) - set(_DIVIDING))),
            sub,
            sub,
        ),
        st.builds(Binary, st.sampled_from(_DIVIDING), sub, divisor),
        st.builds(Unary, st.sampled_from(sorted(_UNARY_OPS)), sub),
        st.builds(
            lambda name, arg: Func(name, (arg,)),
            st.sampled_from(_UNARY_FUNCS + ("LITERAL",)),
            sub,
        ),
        st.builds(
            lambda name, first, second: Func(name, (first, second)),
            st.sampled_from(sorted(set(_SIMPLE_FUNCS) - set(_UNARY_FUNCS))),
            sub,
            sub,
        ),
        st.builds(
            lambda needle, rest: Func("IN", (needle, *rest)), sub, members
        ),
    )


def _tree_rows(padded):
    return [
        {
            name: None if padded and _is_padded(name) else int(values[i])
            for name, values in _TREE_COLUMNS.items()
        }
        for i in range(_TREE_LENGTH)
    ]


def _row_values(expr, rows):
    """The row evaluator per row; a ``TypeError`` is recorded as itself."""
    evaluate = compile_expr(expr)
    values = []
    for row in rows:
        try:
            values.append(evaluate(row))
        except TypeError:
            values.append(TypeError)
    return values


@settings(deadline=None, max_examples=200)
@given(_trees(4))
def test_random_trees_match_the_row_evaluator(expr):
    expected = _row_values(expr, _tree_rows(padded=False))
    try:
        got = materialize(
            vectorize_expr(expr)(_TREE_COLUMNS, _TREE_LENGTH), _TREE_LENGTH
        ).tolist()
    except TypeError:
        got = [TypeError] * _TREE_LENGTH
    assert got == expected, str(expr)


@settings(deadline=None, max_examples=200)
@given(_trees(4))
def test_random_trees_match_the_row_padded_projection(expr):
    expected = [
        None if value is TypeError else value
        for value in _row_values(expr, _tree_rows(padded=True))
    ]
    live = {
        name: values
        for name, values in _TREE_COLUMNS.items()
        if not _is_padded(name)
    }
    got = materialize(
        vectorize_padded_output(expr, _is_padded)(live, _TREE_LENGTH),
        _TREE_LENGTH,
    ).tolist()
    assert got == expected, str(expr)
