"""Runtime operator semantics: selection, aggregation, join, padding."""

import pytest

from repro.engine import (
    ColumnarNullPadOp,
    ColumnBatch,
    WindowAggregateOp,
    batches_equal,
    build_columnar_nullpad,
    build_columnar_operator,
    build_variant_operator,
)
from repro.engine.operators import (
    AggregateOp,
    JoinOp,
    MergeOp,
    SelectionOp,
    build_operator,
)
from tests.parity import kernel_sub_super


def packets(*rows):
    """Small TCP-ish rows with defaults."""
    base = {
        "time": 0,
        "timestamp": 0,
        "srcIP": 1,
        "destIP": 2,
        "srcPort": 10,
        "destPort": 80,
        "protocol": 6,
        "flags": 0x10,
        "len": 100,
    }
    return [dict(base, **row) for row in rows]


class TestMerge:
    def test_concatenates(self):
        merged = MergeOp().process([{"a": 1}], [{"a": 2}], [{"a": 3}])
        assert [r["a"] for r in merged] == [1, 2, 3]

    def test_single_input_copies(self):
        # A merge must never alias its input list: downstream consumers
        # may extend/mutate their batch without corrupting a sibling's.
        batch = [{"a": 1}]
        merged = MergeOp().process(batch)
        assert merged == batch
        assert merged is not batch
        merged.append({"a": 2})
        assert batch == [{"a": 1}]


class TestSelection:
    def test_filter_and_project(self, catalog):
        node = catalog.define_query(
            "q", "SELECT srcIP, len * 2 as dbl FROM TCP WHERE len > 50"
        )
        out = SelectionOp(node).process(packets({"len": 10}, {"len": 60}))
        assert out == [{"srcIP": 1, "dbl": 120}]

    def test_no_where_passes_all(self, catalog):
        node = catalog.define_query("q", "SELECT srcIP FROM TCP")
        assert len(SelectionOp(node).process(packets({}, {}))) == 2

    def test_wrong_node_kind_rejected(self, catalog):
        node = catalog.define_query(
            "agg", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP"
        )
        with pytest.raises(ValueError):
            SelectionOp(node)


class TestAggregation:
    def _flows(self, catalog):
        return catalog.define_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP "
            "GROUP BY time/60 as tb, srcIP",
        )

    def test_grouping_and_aggregates(self, catalog):
        node = self._flows(catalog)
        rows = packets(
            {"time": 0, "srcIP": 1, "len": 10},
            {"time": 30, "srcIP": 1, "len": 20},
            {"time": 61, "srcIP": 1, "len": 5},
            {"time": 5, "srcIP": 2, "len": 7},
        )
        out = AggregateOp(node).process(rows)
        by_key = {(r["tb"], r["srcIP"]): r for r in out}
        assert by_key[(0, 1)] == {"tb": 0, "srcIP": 1, "cnt": 2, "bytes": 30}
        assert by_key[(1, 1)]["cnt"] == 1
        assert by_key[(0, 2)]["bytes"] == 7

    def test_where_applies_before_grouping(self, catalog):
        node = catalog.define_query(
            "q",
            "SELECT srcIP, COUNT(*) as c FROM TCP WHERE len > 50 GROUP BY srcIP",
        )
        out = AggregateOp(node).process(packets({"len": 10}, {"len": 60}))
        assert out == [{"srcIP": 1, "c": 1}]

    def test_having_filters_groups(self, catalog):
        node = catalog.define_query(
            "q",
            "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP "
            "HAVING COUNT(*) > 1",
        )
        rows = packets({"srcIP": 1}, {"srcIP": 1}, {"srcIP": 2})
        out = AggregateOp(node).process(rows)
        assert out == [{"srcIP": 1, "c": 2}]

    def test_or_aggr_having_matches_pattern(self, catalog):
        node = catalog.define_query(
            "q",
            "SELECT srcIP, OR_AGGR(flags) as f FROM TCP GROUP BY srcIP "
            "HAVING OR_AGGR(flags) = #P#",
            params={"#P#": 0x29},
        )
        rows = packets(
            {"srcIP": 1, "flags": 0x01},
            {"srcIP": 1, "flags": 0x28},
            {"srcIP": 2, "flags": 0x10},
        )
        out = AggregateOp(node).process(rows)
        assert out == [{"srcIP": 1, "f": 0x29}]

    def test_empty_input_empty_output(self, catalog):
        node = self._flows(catalog)
        assert AggregateOp(node).process([]) == []


class TestSubSuper:
    def _node(self, catalog):
        return catalog.define_query(
            "q",
            "SELECT srcIP, COUNT(*) as c, AVG(len) as mean FROM TCP "
            "GROUP BY srcIP HAVING COUNT(*) >= 2",
        )

    def test_sub_emits_states_without_having(self, catalog):
        node = self._node(catalog)
        out = build_columnar_operator(node, "sub").process(
            ColumnBatch.from_rows(packets({"srcIP": 1, "len": 10}))
        )
        (row,) = out.to_rows()
        assert row["srcIP"] == 1
        assert row["__state___agg0"] == 1  # COUNT state
        assert row["__state___agg1"] == (10, 1)  # AVG state (sum, count)

    def test_super_combines_and_applies_having(self, catalog):
        node = self._node(catalog)
        part1 = packets({"srcIP": 1, "len": 10}, {"srcIP": 2, "len": 4})
        part2 = packets({"srcIP": 1, "len": 30})
        out = kernel_sub_super(node, [part1, part2])
        assert out == [{"srcIP": 1, "c": 2, "mean": 20.0}]
        assert out == AggregateOp(node).process(part1 + part2)

    def test_sub_super_equals_full(self, catalog, tiny_trace):
        node = catalog.define_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as b, "
            "MIN(timestamp) as lo, MAX(timestamp) as hi FROM TCP "
            "GROUP BY time as tb, srcIP, destIP",
        )
        full = AggregateOp(node).process(tiny_trace.packets)
        # split the trace arbitrarily into three partitions
        thirds = [tiny_trace.packets[i::3] for i in range(3)]
        assert batches_equal(full, kernel_sub_super(node, thirds))


class TestJoin:
    def _setup(self, catalog):
        catalog.define_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
            "GROUP BY time as tb, srcIP",
        )

    def _join(self, catalog, join_sql):
        self._setup(catalog)
        return catalog.define_query("j", join_sql)

    INNER = (
        "SELECT S1.tb, S1.srcIP, S1.cnt as c1, S2.cnt as c2 "
        "FROM flows S1, flows S2 "
        "WHERE S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1"
    )

    def test_inner_join_matches_consecutive_epochs(self, catalog):
        node = self._join(catalog, self.INNER)
        left = [
            {"tb": 0, "srcIP": 1, "cnt": 5},
            {"tb": 1, "srcIP": 1, "cnt": 7},
            {"tb": 0, "srcIP": 2, "cnt": 3},
        ]
        out = JoinOp(node).process(left, left)
        assert out == [{"tb": 0, "srcIP": 1, "c1": 5, "c2": 7}]

    def test_residual_predicate(self, catalog):
        node = self._join(
            catalog,
            self.INNER + " and S2.cnt > S1.cnt",
        )
        rows = [
            {"tb": 0, "srcIP": 1, "cnt": 9},
            {"tb": 1, "srcIP": 1, "cnt": 7},
            {"tb": 0, "srcIP": 2, "cnt": 1},
            {"tb": 1, "srcIP": 2, "cnt": 2},
        ]
        out = JoinOp(node).process(rows, rows)
        assert out == [{"tb": 0, "srcIP": 2, "c1": 1, "c2": 2}]

    def test_left_outer_join_pads_unmatched(self, catalog):
        node = self._join(
            catalog,
            "SELECT S1.tb, S1.srcIP, S2.cnt as c2 "
            "FROM flows S1 LEFT OUTER JOIN flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1",
        )
        rows = [
            {"tb": 0, "srcIP": 1, "cnt": 5},
            {"tb": 1, "srcIP": 1, "cnt": 7},
        ]
        out = JoinOp(node).process(rows, rows)
        padded = [r for r in out if r["c2"] is None]
        assert len(padded) == 1  # tb=1 has no successor epoch
        assert padded[0]["tb"] == 1

    def test_full_outer_join_pads_both_sides(self, catalog):
        node = self._join(
            catalog,
            "SELECT S1.tb as t1, S2.tb as t2 "
            "FROM flows S1 FULL OUTER JOIN flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1",
        )
        left = [{"tb": 0, "srcIP": 1, "cnt": 1}]
        right = [{"tb": 5, "srcIP": 9, "cnt": 1}]
        out = JoinOp(node).process(left, right)
        assert sorted(str(r) for r in out) == sorted(
            [str({"t1": 0, "t2": None}), str({"t1": None, "t2": 5})]
        )

    def test_null_pad_operator(self, catalog):
        """A NULLPAD kernel pads like the outer join itself does over an
        empty opposite side."""
        node = self._join(
            catalog,
            "SELECT S1.tb, S2.cnt as c2 "
            "FROM flows S1 LEFT OUTER JOIN flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1",
        )
        rows = [{"tb": 3, "srcIP": 1, "cnt": 2}]
        expected = JoinOp(node).process(rows, [])
        assert expected == [{"tb": 3, "c2": None}]
        pad = build_columnar_nullpad(node, "left")
        assert isinstance(pad, ColumnarNullPadOp)
        assert pad.process(ColumnBatch.from_rows(rows)).to_rows() == expected

    def test_null_pad_invalid_side(self, catalog):
        node = self._join(catalog, self.INNER)
        with pytest.raises(ValueError):
            build_columnar_nullpad(node, "middle")

    ARITHMETIC_OUTER = (
        "SELECT S1.tb, S1.cnt + S2.cnt as total "
        "FROM flows S1 LEFT OUTER JOIN flows S2 "
        "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1"
    )

    def test_padded_null_arithmetic_yields_null(self, catalog):
        node = self._join(catalog, self.ARITHMETIC_OUTER)
        out = JoinOp(node).process([{"tb": 3, "srcIP": 1, "cnt": 2}], [])
        assert out == [{"tb": 3, "total": None}]

    def test_matched_row_type_error_raises(self, catalog):
        """Regression: NULL-propagation is for padded rows only.  A type
        error while projecting a fully-matched pair is a real bug and must
        not be silently converted to NULL."""
        node = self._join(catalog, self.ARITHMETIC_OUTER)
        left = [{"tb": 0, "srcIP": 1, "cnt": None}]  # corrupt input
        right = [{"tb": 1, "srcIP": 1, "cnt": 7}]
        with pytest.raises(TypeError):
            JoinOp(node).process(left, right)

    def test_pad_schema_covers_equalities_and_residual(self, catalog):
        """Regression: the padding schema must include each side's own
        equality columns and anything the residual references, so every
        key a padded merged row can be asked for exists (as NULL)."""
        node = self._join(
            catalog,
            "SELECT S1.tb "
            "FROM flows S1 FULL OUTER JOIN flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1 "
            "and S2.cnt > S1.cnt",
        )
        # right key columns appear only in the equalities / residual
        assert node.input_attrs(0) == {"cnt", "srcIP", "tb"}
        assert node.input_attrs(1) == {"cnt", "srcIP", "tb"}
        # an unmatched right row pads the full left schema
        out = JoinOp(node).process([], [{"tb": 5, "srcIP": 9, "cnt": 1}])
        assert out == [{"tb": None}]


class TestBuildOperator:
    def test_variants(self, catalog):
        """The row reference is FULL only: tumbling nodes get the plain
        operator, a windowed node the definitional window operator."""
        node = catalog.define_query(
            "q", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP"
        )
        windowed = catalog.define_query(
            "w",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
            "GROUP BY time as tb, srcIP RANGE 3 SLIDE 1",
        )
        assert isinstance(build_operator(node), AggregateOp)
        assert isinstance(build_variant_operator(node, "full"), AggregateOp)
        assert isinstance(build_variant_operator(windowed), WindowAggregateOp)
        for variant in ("sub", "super"):
            with pytest.raises(ValueError):
                build_variant_operator(node, variant)

    def test_unknown_variant(self, catalog):
        node = catalog.define_query(
            "q", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP"
        )
        with pytest.raises(ValueError):
            build_variant_operator(node, "partial")
