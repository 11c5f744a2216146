"""User-defined aggregate functions end-to-end (paper's UDAF model [10]).

Registering an implementation with the engine makes the name available in
GSQL text, type-checks its result, and — when the UDAF is splittable —
lets the distributed optimizer partial-aggregate it like any built-in.
"""

import pytest

from repro.cluster import ClusterSimulator, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import batches_equal, run_centralized
from repro.engine.aggregates import AggregateFunction, register_aggregate
from repro.engine.operators import AggregateOp, SubAggregateOp, SuperAggregateOp
from repro.gsql.catalog import Catalog
from repro.gsql.schema import tcp_schema
from repro.gsql.types import UINT64
from repro.plan import QueryDag


class DistinctCount(AggregateFunction):
    """Exact COUNT(DISTINCT x) via a set-union state — a *holistic* UDAF
    in the paper's terminology, still splittable because set union is a
    merge homomorphism."""

    name = "DISTINCT_CNT"
    state_width = 64  # approximation for the cost model
    splittable = True

    def initial(self):
        return frozenset()

    def update(self, state, value):
        return state | {value}

    def merge(self, state, other):
        return state | other

    def final(self, state):
        return len(state)


class UnmergeableMedian(AggregateFunction):
    """A UDAF that declares itself non-splittable."""

    name = "EXACT_MEDIAN"
    splittable = False

    def initial(self):
        return ()

    def update(self, state, value):
        return state + (value,)

    def merge(self, state, other):  # pragma: no cover - never called
        raise NotImplementedError

    def final(self, state):
        if not state:
            return None
        ordered = sorted(state)
        return ordered[len(ordered) // 2]


register_aggregate(DistinctCount(), result_type=UINT64)
register_aggregate(UnmergeableMedian())


@pytest.fixture
def udaf_catalog():
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    return catalog


def rows():
    base = {
        "time": 0,
        "timestamp": 0,
        "destIP": 9,
        "srcPort": 1,
        "destPort": 80,
        "protocol": 6,
        "flags": 0x10,
    }
    data = []
    for src, dests in ((1, [5, 5, 6]), (2, [7, 8, 8, 9])):
        for index, dest in enumerate(dests):
            data.append(dict(base, srcIP=src, destIP=dest, len=10 * index))
    return data


class TestRegistration:
    def test_udaf_parses_in_gsql(self, udaf_catalog):
        node = udaf_catalog.define_query(
            "fanout",
            "SELECT srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP GROUP BY srcIP",
        )
        assert node.aggregates[0].func == "DISTINCT_CNT"
        assert node.schema.column("dsts").ctype is UINT64

    def test_unregistered_name_is_scalar_function(self, udaf_catalog):
        """Unknown names stay scalar functions and fail at SELECT-list
        rewriting (they are neither group-by nor aggregate)."""
        from repro.gsql.errors import SemanticError

        with pytest.raises(SemanticError):
            udaf_catalog.define_query(
                "bad",
                "SELECT srcIP, MYSTERY(destIP) as m FROM TCP GROUP BY srcIP",
            )


class TestEvaluation:
    def test_full_aggregation(self, udaf_catalog):
        node = udaf_catalog.define_query(
            "fanout",
            "SELECT srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP GROUP BY srcIP",
        )
        out = AggregateOp(node).process(rows())
        by_src = {r["srcIP"]: r["dsts"] for r in out}
        assert by_src == {1: 2, 2: 3}

    def test_sub_super_split(self, udaf_catalog):
        node = udaf_catalog.define_query(
            "fanout",
            "SELECT srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP GROUP BY srcIP",
        )
        data = rows()
        partials = []
        for third in (data[0::3], data[1::3], data[2::3]):
            partials.extend(SubAggregateOp(node).process(third))
        combined = SuperAggregateOp(node).process(partials)
        assert batches_equal(combined, AggregateOp(node).process(data))

    def test_having_on_udaf(self, udaf_catalog):
        node = udaf_catalog.define_query(
            "scanners",
            "SELECT srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP "
            "GROUP BY srcIP HAVING DISTINCT_CNT(destIP) >= 3",
        )
        out = AggregateOp(node).process(rows())
        assert [r["srcIP"] for r in out] == [2]


class TestDistributed:
    def test_udaf_distributes_via_partial_aggregation(self, udaf_catalog, tiny_trace):
        udaf_catalog.define_query(
            "fanout",
            "SELECT tb, srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP "
            "GROUP BY time as tb, srcIP",
        )
        dag = QueryDag.from_catalog(udaf_catalog)
        placement = Placement(3, 2, merge_local_partitions=True)
        plan = DistributedOptimizer(dag, placement, None).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=tiny_trace.rate)
        result = sim.run(
            {"TCP": tiny_trace.packets},
            RoundRobinSplitter(6),
            tiny_trace.duration_sec,
        )
        reference = run_centralized(dag, {"TCP": tiny_trace.packets})
        assert batches_equal(result.outputs["fanout"], reference["fanout"])

    def test_unsplittable_udaf_forces_central_evaluation(self, udaf_catalog):
        udaf_catalog.define_query(
            "median_len",
            "SELECT srcIP, EXACT_MEDIAN(len) as med FROM TCP GROUP BY srcIP",
        )
        dag = QueryDag.from_catalog(udaf_catalog)
        placement = Placement(3, 2)
        optimizer = DistributedOptimizer(dag, placement, None)
        plan = optimizer.optimize()
        ops = plan.ops_for("median_len")
        assert len(ops) == 1  # single central FULL op — no SUB/SUPER split
        assert ops[0].host == plan.aggregator
        assert "centrally" in optimizer.report.decisions["median_len"]

    def test_unsplittable_udaf_still_pushes_when_compatible(self, udaf_catalog, tiny_trace):
        """Compatibility push-down needs no merge function, so even a
        non-splittable UDAF distributes under a compatible partitioning."""
        from repro.cluster import HashSplitter
        from repro.partitioning import PartitioningSet

        udaf_catalog.define_query(
            "median_len",
            "SELECT srcIP, EXACT_MEDIAN(len) as med FROM TCP GROUP BY srcIP",
        )
        dag = QueryDag.from_catalog(udaf_catalog)
        ps = PartitioningSet.of("srcIP")
        plan = DistributedOptimizer(dag, Placement(3, 2), ps).optimize()
        assert len(plan.ops_for("median_len")) == 3
        sim = ClusterSimulator(dag, plan, stream_rate=tiny_trace.rate)
        result = sim.run(
            {"TCP": tiny_trace.packets}, HashSplitter(6, ps), tiny_trace.duration_sec
        )
        reference = run_centralized(dag, {"TCP": tiny_trace.packets})
        assert batches_equal(result.outputs["median_len"], reference["median_len"])

    def test_windowed_udaf_falls_back_piecewise(self, udaf_catalog, tiny_trace):
        """Window reassembly has no row form: a sliding UDAF query adapts
        its tumbling SUB and SUPER row operators around the windowing
        kernel, streams like one-shot, and meets the centralized oracle."""
        udaf_catalog.define_query(
            "fanout",
            "SELECT tb, srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP "
            "GROUP BY time as tb, srcIP RANGE 3 SLIDE 1",
        )
        dag = QueryDag.from_catalog(udaf_catalog)
        plan = DistributedOptimizer(dag, Placement(3, 2), None).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=tiny_trace.rate)
        runs = [
            run({"TCP": tiny_trace.packets}, RoundRobinSplitter(6), 10.0)
            for run in (sim.run, sim.run_streaming)
        ]
        reference = run_centralized(dag, {"TCP": tiny_trace.packets})
        for result in runs:
            assert set(result.node_variants.values()) == {"sub", "super"}
            assert len(result.fallback_nodes) == len(result.node_variants)
            assert batches_equal(result.outputs["fanout"], reference["fanout"])
