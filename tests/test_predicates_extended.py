"""IN lists, BETWEEN ranges, and modulo partitioning expressions."""


from repro.engine.operators import SelectionOp
from repro.expr import is_function_of, parse_scalar, reconcile
from repro.gsql import ast_nodes as ast
from repro.gsql.parser import parse_expression, parse_query


class TestInParsing:
    def test_in_list(self):
        expr = parse_expression("destPort IN (80, 443, 8080)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "IN"
        assert len(expr.args) == 4

    def test_not_in(self):
        expr = parse_expression("destPort NOT IN (22, 23)")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "NOT"
        assert expr.operand.name == "IN"

    def test_in_inside_where(self):
        stmt = parse_query(
            "SELECT srcIP FROM TCP WHERE destPort IN (80, 443) AND len > 100"
        )
        assert stmt.where is not None

    def test_between(self):
        expr = parse_expression("len BETWEEN 100 AND 200")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "AND"
        assert expr.left.op == ">="
        assert expr.right.op == "<="

    def test_not_between(self):
        expr = parse_expression("len NOT BETWEEN 100 AND 200")
        assert isinstance(expr, ast.UnaryOp)

    def test_plain_not_still_works(self):
        expr = parse_expression("NOT len > 5")
        assert isinstance(expr, ast.UnaryOp)


class TestInEvaluation:
    def test_selection_with_in(self, catalog):
        node = catalog.define_query(
            "web", "SELECT srcIP, destPort FROM TCP WHERE destPort IN (80, 443)"
        )
        base = {
            "time": 0, "timestamp": 0, "srcIP": 1, "destIP": 2,
            "srcPort": 9, "protocol": 6, "flags": 0, "len": 10,
        }
        rows = [dict(base, destPort=p) for p in (80, 22, 443, 8080)]
        out = SelectionOp(node).process(rows)
        assert sorted(r["destPort"] for r in out) == [80, 443]

    def test_selection_with_between(self, catalog):
        node = catalog.define_query(
            "mid", "SELECT len FROM TCP WHERE len BETWEEN 100 AND 200"
        )
        base = {
            "time": 0, "timestamp": 0, "srcIP": 1, "destIP": 2,
            "srcPort": 9, "destPort": 80, "protocol": 6, "flags": 0,
        }
        rows = [dict(base, len=v) for v in (50, 100, 150, 200, 250)]
        out = SelectionOp(node).process(rows)
        assert sorted(r["len"] for r in out) == [100, 150, 200]

    def test_not_in_evaluation(self, catalog):
        node = catalog.define_query(
            "rest", "SELECT destPort FROM TCP WHERE destPort NOT IN (80, 443)"
        )
        base = {
            "time": 0, "timestamp": 0, "srcIP": 1, "destIP": 2,
            "srcPort": 9, "protocol": 6, "flags": 0, "len": 10,
        }
        rows = [dict(base, destPort=p) for p in (80, 22, 443)]
        out = SelectionOp(node).process(rows)
        assert [r["destPort"] for r in out] == [22]


class TestModuloRefinement:
    def test_mod_refines_into_multiple(self):
        assert is_function_of(parse_scalar("a % 4"), parse_scalar("a % 8"))
        assert not is_function_of(parse_scalar("a % 8"), parse_scalar("a % 4"))

    def test_mod_semantics(self):
        for value in range(64):
            assert (value % 8) % 4 == value % 4

    def test_mod_reconcile_gcd(self):
        got = reconcile(parse_scalar("a % 6"), parse_scalar("a % 8"))
        assert got == parse_scalar("a % 2")

    def test_mod_reconcile_coprime_is_none(self):
        assert reconcile(parse_scalar("a % 3"), parse_scalar("a % 8")) is None

    def test_mod_vs_mask_unrelated(self):
        assert reconcile(parse_scalar("a % 6"), parse_scalar("a & 0xF0")) is None

    def test_mod_of_attr_is_function(self):
        assert is_function_of(parse_scalar("a % 16"), parse_scalar("a"))

    def test_mod_partitioning_set_usable(self):
        """A modulo expression works as a partitioning key end to end."""
        from repro.cluster import HashSplitter
        from repro.engine import ColumnBatch
        from repro.partitioning import PartitioningSet
        from tests.split_reference import reference_assign

        splitter = HashSplitter(4, PartitioningSet.of("srcIP % 16"))
        rows = [{"srcIP": 5}, {"srcIP": 21}, {"srcIP": 37}]
        indices = splitter.assign_indices(ColumnBatch.from_rows(rows)).tolist()
        # rows equal mod 16 land together, where the reference puts them
        assert indices == reference_assign(splitter, rows) == [indices[0]] * 3

    def test_mod_group_by_compatibility(self, catalog):
        from repro.partitioning import PartitioningSet, is_compatible
        from repro.plan import QueryDag

        catalog.define_query(
            "sharded",
            "SELECT shard, COUNT(*) as c FROM TCP GROUP BY srcIP % 64 as shard",
        )
        dag = QueryDag.from_catalog(catalog)
        node = dag.node("sharded")
        assert is_compatible(PartitioningSet.of("srcIP % 8"), node, dag)
        assert not is_compatible(PartitioningSet.of("srcIP % 3"), node, dag)
