"""Aggregate functions and their sub-/super-aggregate decomposition.

Partial aggregation (paper §5.2.2) splits an aggregate into a *sub*
aggregate evaluated per host and a *super* aggregate that combines the
partial states centrally — "all the SQL built-in aggregates can be
trivially split in a similar fashion", and UDAFs follow the
state/merge/final protocol of the Holistic-UDAF work the paper cites [10].

Every aggregate here implements that protocol directly:

* ``initial()`` — a fresh accumulator state;
* ``update(state, value)`` — fold one input value into the state;
* ``merge(state, other)`` — combine two partial states (the super step);
* ``final(state)`` — extract the result value.

SUB operators ship raw states (opaque column values); SUPER operators
merge them and finalize.  ``state_width`` approximates the on-wire size of
a state in bytes for the cost model and network accounting.
"""

from __future__ import annotations

from math import sqrt
from typing import Dict, Iterable, List

from ..gsql.analyzer import AggregateCall, AnalyzedNode


class AggregateFunction:
    """Base protocol for aggregate implementations."""

    name: str = "?"
    state_width: int = 8
    splittable: bool = True

    def initial(self):
        raise NotImplementedError

    def update(self, state, value):
        raise NotImplementedError

    def merge(self, state, other):
        raise NotImplementedError

    def final(self, state):
        return state


class CountAggregate(AggregateFunction):
    """COUNT(*) and COUNT(expr); super-combines by summation."""

    name = "COUNT"

    def initial(self):
        return 0

    def update(self, state, value):
        return state + 1

    def merge(self, state, other):
        return state + other


class SumAggregate(AggregateFunction):
    name = "SUM"

    def initial(self):
        return 0

    def update(self, state, value):
        return state + value

    def merge(self, state, other):
        return state + other


class MinAggregate(AggregateFunction):
    name = "MIN"

    def initial(self):
        return None

    def update(self, state, value):
        if state is None or value < state:
            return value
        return state

    def merge(self, state, other):
        if state is None:
            return other
        if other is None:
            return state
        return min(state, other)


class MaxAggregate(AggregateFunction):
    name = "MAX"

    def initial(self):
        return None

    def update(self, state, value):
        if state is None or value > state:
            return value
        return state

    def merge(self, state, other):
        if state is None:
            return other
        if other is None:
            return state
        return max(state, other)


class AvgAggregate(AggregateFunction):
    """AVG splits into a (sum, count) state pair, finalized by division."""

    name = "AVG"
    state_width = 16

    def initial(self):
        return (0, 0)

    def update(self, state, value):
        return (state[0] + value, state[1] + 1)

    def merge(self, state, other):
        return (state[0] + other[0], state[1] + other[1])

    def final(self, state):
        if state[1] == 0:
            return None
        return state[0] / state[1]


class VarianceAggregate(AggregateFunction):
    """Population variance via a (count, sum, sum-of-squares) state.

    The textbook mergeable form: both moments add across partitions, so
    the aggregate splits exactly — the statistic network analysts reach
    for when characterizing jitter distributions.
    """

    name = "VARIANCE"
    state_width = 24

    def initial(self):
        return (0, 0, 0)

    def update(self, state, value):
        count, total, squares = state
        return (count + 1, total + value, squares + value * value)

    def merge(self, state, other):
        return (
            state[0] + other[0],
            state[1] + other[1],
            state[2] + other[2],
        )

    def final(self, state):
        count, total, squares = state
        if count == 0:
            return None
        mean = total / count
        return squares / count - mean * mean


class StddevAggregate(VarianceAggregate):
    """Population standard deviation — sqrt of :class:`VarianceAggregate`."""

    name = "STDDEV"

    def final(self, state):
        variance = super().final(state)
        if variance is None:
            return None
        return sqrt(max(variance, 0.0))


class OrAggregate(AggregateFunction):
    """OR_AGGR — bitwise OR fold over the group, the paper's TCP-flags
    suspicious-flow detector (§1, §6.1)."""

    name = "OR_AGGR"
    state_width = 4

    def initial(self):
        return 0

    def update(self, state, value):
        return state | value

    def merge(self, state, other):
        return state | other


class AndAggregate(AggregateFunction):
    """AND_AGGR — bitwise AND fold; identity is all-ones, tracked lazily."""

    name = "AND_AGGR"
    state_width = 4

    def initial(self):
        return None

    def update(self, state, value):
        if state is None:
            return value
        return state & value

    def merge(self, state, other):
        if state is None:
            return other
        if other is None:
            return state
        return state & other


_REGISTRY: Dict[str, AggregateFunction] = {}


def register_aggregate(impl: AggregateFunction, result_type=None) -> None:
    """Register a (possibly user-defined) aggregate implementation.

    Registration makes the name available both to the runtime (this
    registry) and to the GSQL analyzer, so a UDAF can be used directly in
    query text — the paper's Holistic-UDAF extensibility model [10].
    ``result_type`` optionally declares the UDAF's result column type
    (ColumnType or a callable from the argument type); by default the
    argument type is preserved.
    """
    from ..gsql.analyzer import register_aggregate_name

    _REGISTRY[impl.name] = impl
    register_aggregate_name(impl.name, result_type)


def _register_builtins() -> None:
    from ..gsql.types import FLOAT

    for impl in (
        CountAggregate(),
        SumAggregate(),
        MinAggregate(),
        MaxAggregate(),
        AvgAggregate(),
        OrAggregate(),
        AndAggregate(),
    ):
        register_aggregate(impl)
    for impl in (VarianceAggregate(), StddevAggregate()):
        register_aggregate(impl, result_type=FLOAT)


_register_builtins()


def aggregate_impl(name: str) -> AggregateFunction:
    """Look up the implementation for an aggregate function name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"no implementation for aggregate {name!r}") from None


def is_splittable(calls: Iterable[AggregateCall]) -> bool:
    """Whether every aggregate of a query supports sub/super splitting."""
    return all(aggregate_impl(call.func).splittable for call in calls)


class GroupAccumulator:
    """Accumulates one group's aggregate states for a list of calls."""

    __slots__ = ("_impls", "states")

    def __init__(self, impls: List[AggregateFunction]):
        self._impls = impls
        self.states = [impl.initial() for impl in impls]

    def update(self, values: List) -> None:
        states = self.states
        for index, impl in enumerate(self._impls):
            states[index] = impl.update(states[index], values[index])

    def finals(self) -> List:
        return [impl.final(state) for impl, state in zip(self._impls, self.states)]


def state_columns(calls: List[AggregateCall]) -> List[str]:
    """Column names carrying raw states in a SUB operator's output."""
    return [f"__state_{call.slot}" for call in calls]


def states_width(calls: List[AggregateCall]) -> int:
    """Approximate wire size of one row of raw states, in bytes."""
    return sum(aggregate_impl(call.func).state_width for call in calls)


def partial_row_width(node: AnalyzedNode) -> int:
    """Wire size of one SUB partial row of ``node``, in bytes: its
    group-by key widths plus the splittable partial states."""
    return sum(g.ctype.width for g in node.group_by) + states_width(node.aggregates)
