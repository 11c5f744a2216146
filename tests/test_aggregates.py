"""Aggregate functions and the sub/super splitting protocol (§5.2.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.aggregates import (
    AggregateFunction,
    GroupAccumulator,
    aggregate_impl,
    is_splittable,
    register_aggregate,
    state_columns,
    states_width,
)
from repro.gsql.analyzer import AggregateCall


def fold(name, values):
    impl = aggregate_impl(name)
    state = impl.initial()
    for value in values:
        state = impl.update(state, value)
    return impl.final(state)


class TestBuiltins:
    def test_count(self):
        assert fold("COUNT", [10, 20, 30]) == 3

    def test_sum(self):
        assert fold("SUM", [1, 2, 3]) == 6

    def test_min_max(self):
        assert fold("MIN", [5, 2, 9]) == 2
        assert fold("MAX", [5, 2, 9]) == 9

    def test_min_of_nothing_is_none(self):
        assert fold("MIN", []) is None

    def test_avg(self):
        assert fold("AVG", [2, 4]) == 3.0

    def test_avg_of_nothing_is_none(self):
        assert fold("AVG", []) is None

    def test_or_aggr(self):
        assert fold("OR_AGGR", [0x01, 0x08, 0x20]) == 0x29

    def test_and_aggr(self):
        assert fold("AND_AGGR", [0xFF, 0x0F, 0x1F]) == 0x0F

    def test_and_aggr_empty_is_none(self):
        assert fold("AND_AGGR", []) is None

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ValueError):
            aggregate_impl("MEDIAN")

    def test_variance(self):
        assert fold("VARIANCE", [2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(4.0)

    def test_variance_empty_is_none(self):
        assert fold("VARIANCE", []) is None

    def test_stddev(self):
        assert fold("STDDEV", [2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_stddev_constant_series_is_zero(self):
        assert fold("STDDEV", [5, 5, 5]) == pytest.approx(0.0)

    def test_stddev_in_gsql(self, catalog):
        from repro.engine.operators import AggregateOp

        node = catalog.define_query(
            "spread",
            "SELECT srcIP, STDDEV(len) as jitter FROM TCP GROUP BY srcIP",
        )
        assert node.schema.column("jitter").ctype.kind.value == "float"
        base = {
            "time": 0, "timestamp": 0, "srcIP": 1, "destIP": 2,
            "srcPort": 3, "destPort": 80, "protocol": 6, "flags": 0,
        }
        rows = [dict(base, len=v) for v in (2, 4, 4, 4, 5, 5, 7, 9)]
        out = AggregateOp(node).process(rows)
        assert out[0]["jitter"] == pytest.approx(2.0)


class TestSplitting:
    """The core sub/super property: folding a partitioned multiset via
    merge must equal folding it whole."""

    @pytest.mark.parametrize(
        "name", ["COUNT", "SUM", "MIN", "MAX", "AVG", "OR_AGGR", "AND_AGGR"]
    )
    def test_split_equals_whole(self, name):
        impl = aggregate_impl(name)
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        whole = fold(name, values)
        left = impl.initial()
        for v in values[:3]:
            left = impl.update(left, v)
        right = impl.initial()
        for v in values[3:]:
            right = impl.update(right, v)
        assert impl.final(impl.merge(left, right)) == whole

    def test_merge_with_empty_partition(self):
        impl = aggregate_impl("MAX")
        state = impl.initial()
        state = impl.update(state, 7)
        assert impl.final(impl.merge(state, impl.initial())) == 7
        assert impl.final(impl.merge(impl.initial(), state)) == 7

    def test_is_splittable_for_builtins(self):
        calls = [
            AggregateCall("COUNT", None, "__agg0"),
            AggregateCall("OR_AGGR", None, "__agg1"),
        ]
        assert is_splittable(calls)

    def test_unsplittable_udaf_detected(self):
        class Median(AggregateFunction):
            name = "TEST_MEDIAN"
            splittable = False

            def initial(self):
                return []

            def update(self, state, value):
                state.append(value)
                return state

            def merge(self, state, other):
                raise NotImplementedError

        register_aggregate(Median())
        calls = [AggregateCall("TEST_MEDIAN", None, "__agg0")]
        assert not is_splittable(calls)


class TestGroupAccumulator:
    def test_parallel_updates(self):
        impls = [aggregate_impl("COUNT"), aggregate_impl("SUM")]
        acc = GroupAccumulator(impls)
        acc.update([None, 10])
        acc.update([None, 20])
        assert acc.finals() == [2, 30]

    def test_merge_states(self):
        """Two groups' states merge with the aggregate's own ``merge``."""
        (impl,) = impls = [aggregate_impl("MAX")]
        left = GroupAccumulator(impls)
        left.update([5])
        right = GroupAccumulator(impls)
        right.update([9])
        assert impl.final(impl.merge(*left.states, *right.states)) == 9


class TestStateMetadata:
    def test_state_columns_named_after_slots(self):
        calls = [
            AggregateCall("COUNT", None, "__agg0"),
            AggregateCall("SUM", None, "__agg1"),
        ]
        assert state_columns(calls) == ["__state___agg0", "__state___agg1"]

    def test_states_width_sums_impl_widths(self):
        calls = [
            AggregateCall("AVG", None, "__agg0"),  # 16 bytes (sum, count)
            AggregateCall("OR_AGGR", None, "__agg1"),  # 4 bytes
        ]
        assert states_width(calls) == 20


# --- property-based: merge is a homomorphism ----------------------------------

aggregate_names = st.sampled_from(
    ["COUNT", "SUM", "MIN", "MAX", "AVG", "OR_AGGR", "AND_AGGR", "VARIANCE", "STDDEV"]
)
value_lists = st.lists(st.integers(min_value=0, max_value=2**20), max_size=40)


@given(aggregate_names, value_lists, st.integers(min_value=0, max_value=40))
def test_any_split_point_gives_same_result(name, values, cut):
    impl = aggregate_impl(name)
    cut = min(cut, len(values))
    whole = fold(name, values)
    left = impl.initial()
    for v in values[:cut]:
        left = impl.update(left, v)
    right = impl.initial()
    for v in values[cut:]:
        right = impl.update(right, v)
    merged = impl.final(impl.merge(left, right))
    assert merged == whole


@given(aggregate_names, value_lists, value_lists, value_lists)
def test_merge_is_associative_up_to_final(name, a, b, c):
    impl = aggregate_impl(name)

    def state_of(vals):
        s = impl.initial()
        for v in vals:
            s = impl.update(s, v)
        return s

    sa, sb, sc = state_of(a), state_of(b), state_of(c)
    left_first = impl.merge(impl.merge(sa, sb), sc)
    right_first = impl.merge(sa, impl.merge(sb, sc))
    assert impl.final(left_first) == impl.final(right_first)
