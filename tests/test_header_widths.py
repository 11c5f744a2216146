"""Trace columns at their header widths compute as Python's ints do.

A generated trace holds addresses as ``uint32``, ports as ``uint16`` and
protocol, flags as ``uint8`` (``TRACE_COLUMNS``).  NumPy computes on such
arrays in their own width, and the row evaluator on unbounded ints, so
every arithmetic, bitwise and aggregate path over a narrow column must
widen where Python would: a narrow column may change no answer.  These
tests hold each operator to the row evaluator, and a distributed run over
a generated trace to the centralized §3.4 oracle.
"""

import numpy as np
import pytest

from repro.engine import batches_equal, run_centralized
from repro.expr import compile_expr, materialize, vectorize_expr
from repro.expr.expressions import Attr, Binary, Const, Func, Unary
from repro.expr.vectorizer import _BINARY_OPS, _UNARY_OPS
from repro.gsql.catalog import Catalog
from repro.gsql.schema import tcp_schema
from repro.gsql.types import TypeKind
from repro.partitioning import PartitioningSet
from repro.plan import QueryDag
from repro.traces import TraceConfig, generate_trace, load_trace, save_trace
from repro.traces.generator import TRACE_COLUMNS, Trace

from tests.parity import deploy

NARROW = [np.uint8, np.uint16, np.uint32]
INT64 = (-(1 << 63), (1 << 63) - 1)


def _column(dtype) -> np.ndarray:
    top = int(np.iinfo(dtype).max)
    return np.asarray([0, 1, 7, 200, top // 2, top - 1, top], dtype=dtype)


def _constants(dtype) -> list:
    """Zero, negatives, ordinary values and values above the dtype's top."""
    top = int(np.iinfo(dtype).max)
    return [0, -1, -7, 3, 64, top + 1, 3 * (top + 1) + 5]


def _python(expr, values):
    """The row evaluator's value per row, or None where Python raises
    (division by zero, a negative shift) or leaves the int64 range."""
    row_fn = compile_expr(expr)
    if isinstance(expr, Binary) and expr.op == "<<":
        left, right, shift = compile_expr(expr.left), compile_expr(expr.right), row_fn

        def row_fn(row):
            # Past 63 bits the int leaves int64; Python would build it.
            if left(row) and right(row) >= 64:
                raise OverflowError
            return shift(row)

    out = []
    for value in values:
        try:
            result = row_fn({"c": value, "d": value})
        except (ZeroDivisionError, ValueError, OverflowError):
            result = None
        if isinstance(result, int) and not INT64[0] <= result <= INT64[1]:
            result = None
        out.append(result)
    return out


def _vector(expr, column) -> np.ndarray:
    with np.errstate(all="ignore"):
        return materialize(
            vectorize_expr(expr)({"c": column, "d": column}, len(column)),
            len(column),
        )


def _assert_like_python(expr, column):
    """Compare where Python defines the value; return how many rows."""
    want = _python(expr, column.tolist())
    got = _vector(expr, column).tolist()
    pairs = [(g, w) for g, w in zip(got, want) if w is not None]
    for got_value, want_value in pairs:
        assert got_value == want_value, f"{expr} on {column.dtype}"
    return len(pairs)


@pytest.mark.parametrize("dtype", NARROW, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("op", sorted(_BINARY_OPS))
def test_binary_operator_on_a_narrow_column(op, dtype):
    """Column op constant and constant op column, for every constant of
    :func:`_constants`, and the column against itself."""
    column = _column(dtype)
    compared = _assert_like_python(Binary(op, Attr("c"), Attr("d")), column)
    for constant in _constants(dtype):
        compared += _assert_like_python(Binary(op, Attr("c"), Const(constant)), column)
        compared += _assert_like_python(Binary(op, Const(constant), Attr("c")), column)
    assert compared >= 5 * len(column)


@pytest.mark.parametrize("dtype", NARROW, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("op", sorted(_UNARY_OPS))
def test_unary_operator_on_a_narrow_column(op, dtype):
    column = _column(dtype)
    assert _assert_like_python(Unary(op, Attr("c")), column) == len(column)


@pytest.mark.parametrize("dtype", NARROW, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize(
    "func", ["EQ", "NE", "LT", "LE", "GT", "GE", "MIN2", "MAX2", "IN"]
)
def test_comparison_and_pick_on_a_narrow_column(func, dtype):
    """Comparisons and IN read the narrow column as it is; MIN2/MAX2 of
    two ints of different widths meet in int64, not in an ``object``
    column."""
    column = _column(dtype)
    for constant in _constants(dtype):
        for expr in (
            Func(func, (Attr("c"), Const(constant))),
            Func(func, (Const(constant), Attr("c"))),
        ):
            assert _assert_like_python(expr, column) == len(column)
            assert _vector(expr, column).dtype.kind in "biu", expr


def test_mixed_widths_meet_in_int64():
    """Two narrow columns of different widths, as a join or a MIN2 over
    two trace columns sees them."""
    ports = np.asarray([0, 80, 65535], dtype=np.uint16)
    flags = np.asarray([255, 2, 0], dtype=np.uint8)
    columns = {"p": ports, "f": flags}
    rows = [{"p": int(p), "f": int(f)} for p, f in zip(ports, flags)]
    for expr in (
        Binary("-", Attr("f"), Attr("p")),
        Binary("*", Attr("p"), Attr("p")),
        Func("MIN2", (Attr("f"), Attr("p"))),
        Func("MAX2", (Unary("-", Attr("p")), Attr("f"))),
    ):
        got = materialize(vectorize_expr(expr)(columns, 3), 3)
        assert got.dtype == np.int64, expr
        assert got.tolist() == [compile_expr(expr)(row) for row in rows], expr


# -- distributed runs over a generated trace -----------------------------------

NARROW_SHAPES = {
    "sum_shifted": "SELECT tb, srcIP, SUM(len - 1000) as s FROM TCP "
    "GROUP BY time/2 as tb, srcIP",
    "doubled_port": "SELECT time, srcIP, srcPort FROM TCP "
    "WHERE srcPort * 2 > 70000",
    "sum_minus": "SELECT tb, destIP, SUM(len) - 100000 as s, AVG(len - 2000) as a "
    "FROM TCP GROUP BY time as tb, destIP",
    "negative_mask": "SELECT tb, net, COUNT(*) as cnt FROM TCP "
    "GROUP BY time as tb, srcIP & -16 as net",
    "wide_mask": "SELECT tb, net, COUNT(*) as cnt FROM TCP "
    "GROUP BY time as tb, srcIP & 0x1FFFFFFF0 as net",
    "port_xor": "SELECT time, srcPort ^ 0x10000 as p FROM TCP",
    "min_len": "SELECT time, srcIP, MIN2(len, 100) as m FROM TCP",
}


@pytest.fixture(scope="module")
def narrow_dag():
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.load_script(
        "\n".join(
            f"DEFINE QUERY {name} AS {text};" for name, text in NARROW_SHAPES.items()
        )
    )
    return QueryDag.from_catalog(catalog)


@pytest.fixture(scope="module")
def narrow_trace():
    trace = generate_trace(TraceConfig(duration=4, rate=500, num_taps=1, seed=5))
    assert {trace.columns[name].dtype.itemsize for name in TRACE_COLUMNS} == {1, 2, 4, 8}
    return trace


@pytest.mark.parametrize(
    "ps",
    [None, PartitioningSet.of("srcIP"), PartitioningSet.of("srcIP & 0xFFF0")],
    ids=["round-robin", "srcIP", "subnet"],
)
def test_distributed_run_over_narrow_columns_meets_the_oracle(
    narrow_dag, narrow_trace, ps
):
    """The trace enters at its header widths; the oracle folds the same
    rows as Python ints."""
    reference = run_centralized(narrow_dag, {"TCP": narrow_trace.packets})
    sim, splitter = deploy(narrow_dag, 2, ps, deliver=list(NARROW_SHAPES))
    result = sim.run(
        {"TCP": narrow_trace.column_batch()}, splitter, duration_sec=4.0
    )
    for name in NARROW_SHAPES:
        assert len(reference[name]), name
        assert batches_equal(result.outputs[name], reference[name]), name


# -- the width map -------------------------------------------------------------


def test_trace_widths_follow_the_schema():
    """Every non-temporal column is unsigned and no wider than the header
    width ``tcp_schema()`` declares (the cost model prices a tuple by
    them); the two time columns are int64, which an hour of microseconds
    needs."""
    schema = tcp_schema()
    assert set(TRACE_COLUMNS) == set(schema.column_names())
    for name, dtype in TRACE_COLUMNS.items():
        ctype = schema.column(name).ctype
        dtype = np.dtype(dtype)
        if ctype.kind is TypeKind.TIME:
            assert dtype == np.int64, name
        else:
            assert dtype.kind == "u" and dtype.itemsize <= ctype.width, name
    assert np.dtype(TRACE_COLUMNS["len"]) == np.uint16  # IP total length


def test_generated_columns_take_the_map(tiny_trace):
    for name, dtype in TRACE_COLUMNS.items():
        assert tiny_trace.columns[name].dtype == dtype, name


def test_loaded_trace_takes_the_map(tmp_path, tiny_trace):
    path = str(tmp_path / "trace.csv")
    save_trace(tiny_trace, path)
    loaded = load_trace(path)
    for name, dtype in TRACE_COLUMNS.items():
        column = loaded.columns[name]
        assert column.dtype == dtype, name
        assert np.array_equal(column, tiny_trace.columns[name]), name


@pytest.mark.parametrize(
    "name,value", [("srcPort", 70000), ("flags", 256), ("srcIP", -1), ("len", 1 << 16)]
)
def test_a_value_outside_its_width_is_refused(name, value):
    """A packet the header width cannot hold raises, naming the column,
    instead of wrapping."""
    packet = dict.fromkeys(TRACE_COLUMNS, 40)
    packet[name] = value
    trace = Trace(packets=[packet])
    with pytest.raises(ValueError, match=name):
        trace.columns
