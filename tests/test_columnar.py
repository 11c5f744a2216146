"""Columnar backend unit tests: batches, kernels, splitting, caching."""

import numpy as np

from repro.cluster import ClusterSimulator, HashSplitter, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import (
    AggregateOp,
    ColumnarJoinOp,
    ColumnarNullPadOp,
    ColumnBatch,
    JoinOp,
    NullPadOp,
    SubAggregateOp,
    SuperAggregateOp,
    batches_equal,
    build_columnar_nullpad,
    build_columnar_operator,
    build_operator,
    ensure_columns,
    ensure_rows,
)
from repro.partitioning import PartitioningSet
from repro.partitioning.partition_set import fnv1a_hash, fnv1a_hash_arrays
from repro.workloads import suspicious_flows_catalog


class TestColumnBatch:
    def test_row_round_trip_native_scalars(self):
        rows = [{"a": 1, "b": 40}, {"a": 2, "b": 1500}]
        batch = ColumnBatch.from_rows(rows)
        back = batch.to_rows()
        assert back == rows
        assert type(back[0]["a"]) is int  # never numpy scalars

    def test_composite_state_round_trip(self):
        # AVG-style (sum, count) tuple cells become unzipped array pairs
        # and zip back into per-row Python tuples.
        rows = [{"k": 1, "__state___agg0": (10, 2)}, {"k": 2, "__state___agg0": (7, 1)}]
        batch = ColumnBatch.from_rows(rows)
        state = batch.column("__state___agg0")
        assert isinstance(state, tuple) and len(state) == 2
        assert batch.to_rows() == rows

    def test_select_by_mask_and_indices(self):
        batch = ColumnBatch({"x": np.asarray([5, 6, 7, 8])})
        masked = batch.select(np.asarray([True, False, True, False]))
        assert masked.to_rows() == [{"x": 5}, {"x": 7}]
        indexed = batch.select(np.asarray([3, 0]))
        assert indexed.to_rows() == [{"x": 8}, {"x": 5}]

    def test_concat_skips_empty(self):
        a = ColumnBatch({"x": np.asarray([1])})
        empty = ColumnBatch({}, 0)
        out = ColumnBatch.concat([empty, a, empty, a])
        assert len(out) == 2 and out.to_rows() == [{"x": 1}, {"x": 1}]

    def test_ensure_helpers_pass_through(self):
        rows = [{"x": 1}]
        batch = ensure_columns(rows)
        assert ensure_columns(batch) is batch
        assert ensure_rows(rows) is rows
        assert ensure_rows(batch) == rows


def _columnar_matches_row(node, packets, variant="full"):
    row_out = build_operator(node, variant).process(list(packets))
    col_op = build_columnar_operator(node, variant)
    assert col_op is not None, f"no columnar kernel for {node.name}/{variant}"
    col_out = col_op.process(ColumnBatch.from_rows(packets)).to_rows()
    assert batches_equal(row_out, col_out)
    return col_out


class TestOperatorParity:
    def test_selection(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q",
            "SELECT srcIP, destIP, len * 2 as dbl FROM TCP "
            "WHERE len > 100 and destPort IN (80, 443)",
        )
        _columnar_matches_row(node, tiny_trace.packets)

    def test_full_aggregation_every_kernel(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q",
            "SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as b, MIN(len) as lo, "
            "MAX(len) as hi, AVG(len) as mean, OR_AGGR(flags) as f "
            "FROM TCP GROUP BY time/2 as tb, srcIP",
        )
        _columnar_matches_row(node, tiny_trace.packets)

    def test_global_aggregate_no_group_by(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q", "SELECT COUNT(*) as cnt, SUM(len) as b FROM TCP"
        )
        out = _columnar_matches_row(node, tiny_trace.packets)
        assert len(out) == 1

    def test_having_filters_groups(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q",
            "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP "
            "HAVING COUNT(*) >= 10",
        )
        _columnar_matches_row(node, tiny_trace.packets)

    def test_sub_states_match_row_representation(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q",
            "SELECT srcIP, COUNT(*) as c, AVG(len) as mean FROM TCP "
            "GROUP BY srcIP HAVING COUNT(*) >= 2",
        )
        col_sub = _columnar_matches_row(node, tiny_trace.packets, "sub")
        # and the row SUPER accepts the columnar SUB output unchanged:
        combined = SuperAggregateOp(node).process(col_sub)
        full = AggregateOp(node).process(tiny_trace.packets)
        assert batches_equal(combined, full)

    def test_super_merges_row_sub_output(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q",
            "SELECT tb, destIP, COUNT(*) as c, AVG(len) as mean, "
            "MAX(timestamp) as hi FROM TCP GROUP BY time as tb, destIP",
        )
        thirds = [tiny_trace.packets[i::3] for i in range(3)]
        partials = []
        for third in thirds:
            partials.extend(SubAggregateOp(node).process(third))
        _columnar_matches_row(node, partials, "super")

    def test_empty_input(self, catalog):
        node = catalog.define_query(
            "q", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP"
        )
        for variant in ("full", "sub", "super"):
            out = build_columnar_operator(node, variant).process(
                ColumnBatch.from_rows([])
            )
            assert len(out) == 0 and out.to_rows() == []

    def test_join_compiles_columnar(self, catalog):
        catalog.define_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time as tb, srcIP",
        )
        node = catalog.define_query(
            "j",
            "SELECT S1.tb, S1.srcIP FROM flows S1, flows S2 "
            "WHERE S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1",
        )
        assert isinstance(build_columnar_operator(node), ColumnarJoinOp)


def _flow(tb, ip, cnt):
    return {"tb": tb, "srcIP": ip, "cnt": cnt}


class TestColumnarJoin:
    """Edge cases the row join handles implicitly, asserted explicitly.

    Every case runs both engines on the same inputs and compares output
    multisets; the columnar result additionally round-trips through
    ``to_rows`` so NULL padding and native-scalar conversion are covered.
    """

    def _node(self, catalog, join_clause, name="j"):
        if name == "j":  # first definition in this catalog
            catalog.define_query(
                "flows",
                "SELECT tb, srcIP, COUNT(*) as cnt "
                "FROM TCP GROUP BY time as tb, srcIP",
            )
        return catalog.define_query(
            name,
            "SELECT S1.tb as tb, S1.srcIP as ip, S1.cnt + S2.cnt as total "
            f"FROM flows S1 {join_clause} flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb",
        )

    def _parity(self, node, left, right):
        row_out = JoinOp(node).process(list(left), list(right))
        col_op = build_columnar_operator(node)
        assert isinstance(col_op, ColumnarJoinOp)
        col_out = col_op.process(
            ColumnBatch.from_rows(left), ColumnBatch.from_rows(right)
        ).to_rows()
        assert batches_equal(row_out, col_out)
        return col_out

    def test_empty_build_side_inner(self, catalog):
        node = self._node(catalog, "JOIN")
        left = [_flow(1, 10, 3), _flow(1, 11, 4)]
        assert self._parity(node, left, []) == []

    def test_empty_build_side_left_outer_pads_every_probe_row(self, catalog):
        node = self._node(catalog, "LEFT OUTER JOIN")
        left = [_flow(1, 10, 3), _flow(2, 11, 4)]
        out = self._parity(node, left, [])
        assert len(out) == 2
        assert all(row["total"] is None for row in out)

    def test_empty_probe_side_right_outer_pads_every_build_row(self, catalog):
        node = self._node(catalog, "RIGHT OUTER JOIN")
        right = [_flow(1, 10, 3), _flow(2, 11, 4)]
        out = self._parity(node, [], right)
        assert len(out) == 2
        assert all(row["total"] is None for row in out)

    def test_both_sides_empty(self, catalog):
        inner = self._node(catalog, "JOIN")
        outer = self._node(catalog, "FULL OUTER JOIN", name="j_outer")
        assert self._parity(inner, [], []) == []
        assert self._parity(outer, [], []) == []

    def test_all_rows_padded_full_outer_disjoint_keys(self, catalog):
        node = self._node(catalog, "FULL OUTER JOIN")
        left = [_flow(1, 10, 3), _flow(1, 11, 4)]
        right = [_flow(2, 10, 5), _flow(2, 12, 6)]
        out = self._parity(node, left, right)
        assert len(out) == 4  # no key matches: every row survives padded
        assert all(row["total"] is None for row in out)

    def test_duplicate_key_collisions_cross_product(self, catalog):
        node = self._node(catalog, "JOIN")
        left = [_flow(1, 10, c) for c in (1, 2, 3)] + [_flow(1, 11, 9)]
        right = [_flow(1, 10, c) for c in (10, 20)] + [_flow(1, 12, 9)]
        out = self._parity(node, left, right)
        assert len(out) == 6  # 3 left x 2 right rows share key (10, 1)
        totals = sorted(row["total"] for row in out)
        assert totals == [11, 12, 13, 21, 22, 23]

    def test_duplicate_keys_full_outer_pads_once_per_unmatched_row(self, catalog):
        node = self._node(catalog, "FULL OUTER JOIN")
        left = [_flow(1, 10, 1), _flow(1, 10, 2), _flow(1, 11, 5)]
        right = [_flow(1, 10, 7), _flow(1, 12, 8), _flow(1, 12, 9)]
        out = self._parity(node, left, right)
        matched = [row for row in out if row["total"] is not None]
        padded = [row for row in out if row["total"] is None]
        assert sorted(row["total"] for row in matched) == [8, 9]
        assert len(padded) == 3  # left ip=11 once, right ip=12 twice

    def test_residual_failure_still_pads_outer_rows(self, catalog):
        # Keys match but the residual rejects the pair: the row engine
        # counts neither side as matched, so outer joins pad both.
        catalog.define_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time as tb, srcIP",
        )
        node = catalog.define_query(
            "j",
            "SELECT S1.tb as tb, S1.srcIP as ip, S1.cnt + S2.cnt as total "
            "FROM flows S1 FULL OUTER JOIN flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb and S1.cnt > S2.cnt",
        )
        left = [_flow(1, 10, 3), _flow(1, 11, 9)]
        right = [_flow(1, 10, 5), _flow(1, 11, 2)]
        out = self._parity(node, left, right)
        matched = [row for row in out if row["total"] is not None]
        padded = [row for row in out if row["total"] is None]
        assert [row["total"] for row in matched] == [11]  # only 9 > 2
        assert len(padded) == 2  # ip=10 pair fails 3 > 5: both sides pad


class TestColumnarNullPad:
    def _node(self, catalog):
        catalog.define_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time as tb, srcIP",
        )
        return catalog.define_query(
            "j",
            "SELECT S1.tb as tb, S1.srcIP as ip, S1.cnt + S2.cnt as total "
            "FROM flows S1 FULL OUTER JOIN flows S2 "
            "ON S1.srcIP = S2.srcIP and S2.tb = S1.tb",
        )

    def test_matches_row_nullpad_both_sides(self, catalog):
        node = self._node(catalog)
        rows = [_flow(1, 10, 3), _flow(2, 11, 4)]
        for side in ("left", "right"):
            expected = NullPadOp(node, side).process(list(rows))
            col_op = build_columnar_nullpad(node, side)
            assert isinstance(col_op, ColumnarNullPadOp)
            got = col_op.process(ColumnBatch.from_rows(rows)).to_rows()
            assert batches_equal(expected, got)
            assert all(row["total"] is None for row in got)

    def test_empty_input(self, catalog):
        node = self._node(catalog)
        out = build_columnar_nullpad(node, "left").process(ColumnBatch({}, 0))
        assert len(out) == 0 and out.to_rows() == []


class TestVectorizedSplitting:
    def test_hash_assignment_matches_row_partitioner(self, tiny_trace):
        for spec in (("srcIP",), ("srcIP & 0xFFF0", "destIP"),
                     ("srcIP", "destIP", "srcPort", "destPort")):
            splitter = HashSplitter(8, PartitioningSet.of(*spec))
            assign = splitter.assigner()
            expected = [assign(row) for row in tiny_trace.packets]
            indices = splitter.assign_indices(tiny_trace.column_batch())
            assert indices.tolist() == expected, spec

    def test_round_robin_assignment(self):
        splitter = RoundRobinSplitter(3)
        batch = ColumnBatch({"x": np.arange(7)})
        assert splitter.assign_indices(batch).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_split_columns_matches_split(self, tiny_trace):
        splitter = HashSplitter(4, PartitioningSet.of("srcIP"))
        by_rows = splitter.split(tiny_trace.packets)
        by_columns = splitter.split_columns(tiny_trace.column_batch())
        assert [part.to_rows() for part in by_columns] == by_rows

    def test_vectorized_fnv1a_is_bit_identical(self):
        values = np.asarray(
            [0, 1, -1, 2**31, -(2**31), 2**63 - 1, -(2**63), 167772161], dtype=np.int64
        )
        ports = np.asarray([0, 80, 443, 25, 65535, 1, 7, 22], dtype=np.int64)
        hashed = fnv1a_hash_arrays([values, ports])
        expected = [
            fnv1a_hash((int(v), int(p))) for v, p in zip(values, ports)
        ]
        assert hashed.tolist() == expected


class TestOperatorCaching:
    def test_simulator_reuses_operators_across_hosts_and_runs(self, tiny_trace):
        _, dag = suspicious_flows_catalog()
        ps = PartitioningSet.of("srcIP")
        placement = Placement(3, 2)
        plan = DistributedOptimizer(dag, placement, ps).optimize()
        splitter = HashSplitter(placement.num_partitions, ps)
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        # Compilation is eager: the session resolves every plan node
        # to a CompiledOperator at construction time.
        cache = dict(sim.session.backend.cached_operators)
        assert cache
        # distinct (kind, query, variant) keys, far fewer than plan nodes
        assert len(cache) < len(list(plan.topological()))
        sim.run({"TCP": tiny_trace.packets}, splitter, duration_sec=10.0)
        sim.run({"TCP": tiny_trace.packets}, splitter, duration_sec=10.0)
        after = sim.session.backend.cached_operators
        for key, compiled in cache.items():
            assert after[key] is compiled, key
