"""Columnar backend unit tests: batches, kernels, splitting, caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.columnar as columnar
from repro.cluster import ClusterSimulator, HashSplitter, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import (
    AggregateOp,
    ColumnarJoinOp,
    ColumnarNullPadOp,
    ColumnBatch,
    JoinOp,
    batches_equal,
    build_columnar_nullpad,
    build_columnar_operator,
    build_operator,
    ensure_columns,
)
from repro.partitioning import PartitioningSet
from repro.partitioning.partition_set import fnv1a_hash_arrays
from repro.workloads import complex_catalog, suspicious_flows_catalog
from tests.parity import kernel_sub_super
from tests.split_reference import fnv1a_hash, reference_assign, reference_split


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
        assert batch.to_rows() == rows


def _columnar_matches_row(node, packets):
    row_out = build_operator(node).process(list(packets))
    col_out = build_columnar_operator(node).process(
        ColumnBatch.from_rows(packets)
    ).to_rows()
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
        sub = build_columnar_operator(node, "sub").process(
            ColumnBatch.from_rows(tiny_trace.packets)
        )
        # SUB rows carry each group's raw states as native Python values:
        # COUNT's count and AVG's (sum, count) tuple.
        lens = {}
        for packet in tiny_trace.packets:
            lens.setdefault(packet["srcIP"], []).append(packet["len"])
        assert {
            row["srcIP"]: (row["__state___agg0"], row["__state___agg1"])
            for row in sub.to_rows()
        } == {ip: (len(v), (sum(v), len(v))) for ip, v in lens.items()}
        # and the SUPER kernel finishes them into the row FULL answer:
        combined = kernel_sub_super(node, [tiny_trace.packets])
        full = AggregateOp(node).process(tiny_trace.packets)
        assert batches_equal(combined, full)

    def test_super_merges_row_sub_output(self, catalog, tiny_trace):
        node = catalog.define_query(
            "q",
            "SELECT tb, destIP, COUNT(*) as c, AVG(len) as mean, "
            "MAX(timestamp) as hi FROM TCP GROUP BY time as tb, destIP",
        )
        thirds = [tiny_trace.packets[i::3] for i in range(3)]
        full = AggregateOp(node).process(tiny_trace.packets)
        assert batches_equal(kernel_sub_super(node, thirds), full)

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
        """The row reference of a NULLPAD is the FULL OUTER join over an
        empty opposite side: every present row pads."""
        node = self._node(catalog)
        rows = [_flow(1, 10, 3), _flow(2, 11, 4)]
        for side in ("left", "right"):
            inputs = (list(rows), []) if side == "left" else ([], list(rows))
            expected = JoinOp(node).process(*inputs)
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
            expected = reference_assign(splitter, tiny_trace.packets)
            indices = splitter.assign_indices(tiny_trace.column_batch())
            assert indices.tolist() == expected, spec

    def test_round_robin_assignment(self):
        splitter = RoundRobinSplitter(3)
        batch = ColumnBatch({"x": np.arange(7)})
        assert splitter.assign_indices(batch).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_split_columns_matches_split(self, tiny_trace):
        splitter = HashSplitter(4, PartitioningSet.of("srcIP"))
        by_rows = reference_split(splitter, tiny_trace.packets)
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
        # to its kernel at construction time.
        cache = dict(sim.session.backend.cached_operators)
        assert cache
        # distinct (kind, query, variant) keys, far fewer than plan nodes
        assert len(cache) < len(list(plan.topological()))
        sim.run({"TCP": tiny_trace.packets}, splitter, duration_sec=10.0)
        sim.run({"TCP": tiny_trace.packets}, splitter, duration_sec=10.0)
        after = sim.session.backend.cached_operators
        for key, compiled in cache.items():
            assert after[key] is compiled, key


# -- group-by factorization ----------------------------------------------------


def _lexsort_group(keys, length):
    """The reference factorization: a stable lexsort plus neighbour compares."""
    order = np.lexsort(tuple(reversed(keys)))
    sorted_keys = [key[order] for key in keys]
    change = np.zeros(length, dtype=bool)
    change[0] = True
    for key in sorted_keys:
        change[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, length))
    return order, starts, counts, [key[starts] for key in sorted_keys]


def _assert_groups_like_lexsort(keys, length):
    """The ordered call equals the reference in all four values; the
    order-free call returns no order and equals it in the other three."""
    want = _lexsort_group(keys, length)
    for ordered in (True, False):
        got = columnar._group(keys, length, ordered)
        if ordered:
            pairs = zip(("order", "starts", "counts"), got[:3], want[:3])
        else:
            assert got[0] is None
            pairs = zip(("starts", "counts"), got[1:3], want[1:3])
        for name, g, w in pairs:
            assert g.dtype == w.dtype, (ordered, name)
            assert np.array_equal(g, w), (ordered, name)
        assert len(got[3]) == len(want[3])
        for g, w in zip(got[3], want[3]):
            assert g.dtype == w.dtype, ordered
            assert np.array_equal(g, w), ordered


_PACKABLE_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64, np.bool_,
)


@st.composite
def _key_columns(draw):
    """1-4 integer/bool key columns; lengths hit the index-bit edges 2**k
    and 2**k + 1, values repeat (few distinct per column) and include the
    dtype's extremes, so widths range from 0 (constant) to 64."""
    length = draw(
        st.one_of(
            st.integers(1, 64),
            st.builds(
                lambda k, extra: 2**k + extra, st.integers(0, 10), st.integers(0, 1)
            ),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(_PACKABLE_DTYPES))
        if dtype is np.bool_:
            lowest, highest = 0, 1
        else:
            lowest, highest = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
        value = st.one_of(
            st.sampled_from([lowest, highest, 0]), st.integers(lowest, highest)
        )
        pool = np.asarray(draw(st.lists(value, min_size=1, max_size=5)), dtype=dtype)
        keys.append(pool[rng.integers(0, len(pool), length)])
    return keys, length


class TestGroupFactorization:
    """``_group`` is the stable lexsort factorization, dtypes included."""

    @settings(deadline=None, max_examples=150)
    @given(_key_columns())
    def test_matches_lexsort(self, case):
        keys, length = case
        _assert_groups_like_lexsort(keys, length)

    @pytest.mark.parametrize("length", [1, 2, 1024, 1025])
    def test_narrow_negative_and_constant_keys(self, length):
        rng = np.random.default_rng(length)
        keys = [
            np.full(length, -7, dtype=np.int64),  # constant: no bits
            rng.integers(-3, 2, length).astype(np.int8),
            rng.integers(0, 2, length).astype(bool),
            rng.integers(2**63, 2**63 + 4, length, dtype=np.uint64),
        ]
        assert columnar._pack_keys(keys, length) is not None
        _assert_groups_like_lexsort(keys, length)

    @pytest.mark.parametrize("extra_bits, packed", [(0, True), (1, False)])
    def test_64_bits_pack_and_65_fall_back(self, extra_bits, packed):
        # 1024 rows take 10 index bits; the keys 30 and 24 (or 25) more.
        length = 1024
        rng = np.random.default_rng(3)
        wide = rng.integers(-(2**29), 2**29, length) // 2**26 * 2**26
        wide[:2] = -(2**29), 2**29 - 1
        top = 2 ** (24 + extra_bits) - 1
        narrow = (rng.integers(0, 4, length) * (top // 3)).astype(np.uint32)
        narrow[:2] = 0, top
        keys = [wide, narrow]
        assert (columnar._pack_keys(keys, length) is not None) is packed
        _assert_groups_like_lexsort(keys, length)

    @pytest.mark.parametrize(
        "index, extra_bits, dtype",
        [
            (False, 0, np.uint32),
            (False, 1, np.uint64),
            (True, 0, np.uint64),
            (True, 1, np.uint64),
        ],
    )
    def test_32_bits_pack_narrow_and_33_wide(self, index, extra_bits, dtype):
        # Index-free codes narrow at 32 bits; codes with the index never
        # do.  1024 rows take 10 index bits when the index rides; the
        # keys 5, 7 (or 8) and the rest up to 32 bits.
        length = 1024
        rng = np.random.default_rng(5)
        rest = 32 - 12 - (10 if index else 0)
        tops = [2**5 - 1, 2 ** (7 + extra_bits) - 1, 2**rest - 1]
        lows = [-9, 100, 2**40]
        keys = []
        for low, top in zip(lows, tops):
            key = low + rng.integers(0, 4, length) * (top // 3)
            key[:2] = low, low + top
            keys.append(key)
        keys[0] = keys[0].astype(np.int8)
        keys[1] = keys[1].astype(np.uint16)
        code, fields = columnar._pack_keys(keys, length, index)
        assert code.dtype == dtype
        assert [width for _, width, _ in fields] == [5, 7 + extra_bits, rest]
        _assert_groups_like_lexsort(keys, length)

    @pytest.mark.parametrize(
        "key, packed",
        [
            (np.asarray([2**63 - 1, -(2**63)], dtype=np.int64), False),
            (np.asarray([2**62 - 1, -(2**62)], dtype=np.int64), True),
            (np.asarray([2**64 - 1, 0], dtype=np.uint64), False),
            (np.asarray([2**64 - 1, 2**63], dtype=np.uint64), True),
        ],
        ids=["int64-full", "int64-63-bits", "uint64-full", "uint64-high-half"],
    )
    def test_two_rows_of_extreme_keys(self, key, packed):
        # Two rows take 1 index bit: a 63-bit range packs, 64 bits do not.
        assert (columnar._pack_keys([key], 2) is not None) is packed
        _assert_groups_like_lexsort([key], 2)
        _assert_groups_like_lexsort([key[::-1]], 2)

    @pytest.mark.parametrize(
        "second",
        [
            np.asarray([0.5, -1.0, 0.5, 2.0, -1.0]),
            np.asarray(["b", "a", "b", "c", "a"], dtype=object),
        ],
        ids=["float", "object"],
    )
    def test_float_and_object_keys_fall_back(self, second):
        keys = [np.asarray([1, 1, 1, 0, 1]), second]
        assert columnar._pack_keys(keys, 5) is None
        _assert_groups_like_lexsort(keys, 5)

    def test_join_codes_match_int_keys_to_float_keys(self):
        left = [np.asarray([5, 3, 7, 5], dtype=np.int64)]
        right = [np.asarray([5.0, 2.5, 7.0, 5.0, 3.5])]
        left_codes, right_codes, num_groups, right_order = columnar._join_codes(
            left, right
        )
        assert left_codes[0] == left_codes[3] == right_codes[0] == right_codes[3]
        assert left_codes[2] == right_codes[2]
        assert left_codes[1] not in right_codes
        assert num_groups == 5  # 2.5, 3, 3.5, 5, 7
        assert right_order.tolist() == np.argsort(right_codes, kind="stable").tolist()

    _KEY_ROWS = st.lists(
        st.tuples(st.integers(0, 3), st.integers(-2, 2)), min_size=1, max_size=40
    )

    @settings(deadline=None, max_examples=60)
    @given(_KEY_ROWS, _KEY_ROWS)
    def test_join_codes_equal_iff_keys_equal(self, left_rows, right_rows):
        left = [np.asarray(column) for column in zip(*left_rows)]
        right = [np.asarray(column) for column in zip(*right_rows)]
        left_codes, right_codes, num_groups, right_order = columnar._join_codes(
            left, right
        )
        rows = left_rows + right_rows
        codes = np.concatenate([left_codes, right_codes]).tolist()
        assert num_groups == len(set(rows))
        assert len({(row, code) for row, code in zip(rows, codes)}) == num_groups
        assert right_order.tolist() == np.argsort(right_codes, kind="stable").tolist()


@settings(deadline=None, max_examples=60)
@given(_key_columns(), st.integers(1, 3))
def test_group_accepts_read_only_strided_keys(case, step):
    """Split partitions hand kernels read-only (round-robin: strided)
    views; packing them writes only into its own scratch."""
    keys, length = case
    views = []
    for key in keys:
        view = np.repeat(key, step)[::step]
        view.flags.writeable = False
        views.append(view)
    _assert_groups_like_lexsort(views, length)


def _reversed_within_groups(group):
    """A ``_group`` that keeps every group but reverses each one's rows."""

    def reversed_group(keys, length, ordered=True):
        order, starts, counts, group_keys = group(keys, length, ordered)
        if order is not None:
            order = np.concatenate(
                [
                    order[start:start + count][::-1]
                    for start, count in zip(starts, counts)
                ]
            )
        return order, starts, counts, group_keys

    return reversed_group


# One group whose float SUM depends on the addition order (reversed, it
# sums to 3.0, not 4.0), interleaved row by row with a second group.
_ORDER_SENSITIVE = [1e16, -1e16, 1.0, 3.0]
_ORDER_ROWS = [
    row
    for a, b in zip(_ORDER_SENSITIVE, [1.0, 2.0, 3.0, 4.0])
    for row in ({"srcIP": 1, "len": a}, {"srcIP": 2, "len": b})
]


def _assert_sum_folds_in_input_order(catalog, path):
    node = catalog.define_query(
        "q", "SELECT srcIP, SUM(len) as s FROM TCP GROUP BY srcIP"
    )
    want = AggregateOp(node).process(_ORDER_ROWS)
    if path == "full":
        got = build_columnar_operator(node).process(
            ColumnBatch.from_rows(_ORDER_ROWS)
        ).to_rows()
    else:
        # One row of each group per partition: SUPER merges four partials.
        partitions = [_ORDER_ROWS[i:i + 2] for i in range(0, len(_ORDER_ROWS), 2)]
        got = kernel_sub_super(node, partitions)
    assert {row["srcIP"]: row["s"] for row in want} == {1: 4.0, 2: 10.0}
    assert batches_equal(got, want)


def _spy_on_group(monkeypatch):
    """Record the ``ordered`` argument of every ``_group`` call."""
    asked = []
    group = columnar._group

    def spy(keys, length, ordered=True):
        asked.append(ordered)
        return group(keys, length, ordered)

    monkeypatch.setattr(columnar, "_group", spy)
    return asked


class TestGroupOrderPin:
    """Within a group, rows reach the reductions in input order."""

    @pytest.mark.parametrize("variant", ["full", "sub"])
    def test_count_star_kernel_asks_for_no_order(
        self, monkeypatch, tiny_trace, variant
    ):
        _, dag = complex_catalog()
        kernel = build_columnar_operator(dag.node("flows"), variant)
        asked = _spy_on_group(monkeypatch)
        assert len(kernel.process(tiny_trace.column_batch())) > 0
        assert asked == [False]

    @pytest.mark.parametrize("path", ["full", "sub_super"])
    def test_float_sum_kernel_always_asks_for_order(
        self, catalog, monkeypatch, path
    ):
        asked = _spy_on_group(monkeypatch)
        _assert_sum_folds_in_input_order(catalog, path)
        assert asked and all(asked)

    @pytest.mark.parametrize("path", ["full", "sub_super"])
    def test_float_sum_equals_the_row_fold(self, catalog, path):
        _assert_sum_folds_in_input_order(catalog, path)

    @pytest.mark.parametrize("path", ["full", "sub_super"])
    def test_reversed_group_order_is_caught(self, catalog, monkeypatch, path):
        monkeypatch.setattr(
            columnar, "_group", _reversed_within_groups(columnar._group)
        )
        with pytest.raises(AssertionError):
            _assert_sum_folds_in_input_order(catalog, path)
