"""User-defined aggregate functions end-to-end (paper's UDAF model [10]).

Registering an implementation with the engine makes the name available in
GSQL text, type-checks its result, and — when the UDAF is splittable —
lets the distributed optimizer partial-aggregate it like any built-in.
The runtime folds a UDAF per group inside the aggregate kernels: its own
``initial``/``update`` over each group's slice (FULL, SUB), ``merge``
over each group's shipped states (SUPER), and ``final`` once per group.
"""

import hashlib

import pytest

from repro.cluster import ClusterSimulator, RoundRobinSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import DistKind
from repro.engine import batches_equal, canonical, run_centralized
from repro.engine.aggregates import AggregateFunction, register_aggregate
from repro.engine.operators import AggregateOp, SubAggregateOp, SuperAggregateOp
from repro.gsql.catalog import Catalog
from repro.gsql.errors import SemanticError
from repro.gsql.schema import tcp_schema
from repro.gsql.types import UINT64
from repro.plan import QueryDag
from tests.parity import WORKERS, deploy, last_value_dag, reverse_the_fold


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


def _catalog():
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    return catalog


@pytest.fixture
def udaf_catalog():
    return _catalog()


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
        """Unknown names are neither aggregates nor known scalar
        functions: the analyzer rejects them, naming the function."""
        with pytest.raises(SemanticError, match="MYSTERY"):
            udaf_catalog.define_query(
                "bad",
                "SELECT srcIP, MYSTERY(destIP) as m FROM TCP GROUP BY srcIP",
            )

    def test_unknown_scalar_function_fails_at_analysis(self, udaf_catalog):
        """Not at compile: a selection with no aggregate at all is
        rejected when it is defined, with the functions that exist."""
        with pytest.raises(SemanticError, match=r"'FOO'.*\bABS\b.*\bMAX2\b"):
            udaf_catalog.define_query(
                "bad", "SELECT srcIP, FOO(len) as f FROM TCP"
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
        """A sliding UDAF query is window reassembly over the fold: its
        SUB kernel folds each pane's groups, its SUPER reassembles
        windows and merges them with the fold, and both stream like
        one-shot and meet the centralized oracle."""
        from repro.engine.columnar import ColumnarSuperAggregateOp
        from repro.engine.variants import ColumnarSlidingOp

        udaf_catalog.define_query(
            "fanout",
            "SELECT tb, srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP "
            "GROUP BY time as tb, srcIP RANGE 3 SLIDE 1",
        )
        dag = QueryDag.from_catalog(udaf_catalog)
        plan = DistributedOptimizer(dag, Placement(3, 2), None).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=tiny_trace.rate)
        supers = [
            sim.session.backend.compile_node(node).operator
            for node in plan.topological()
            if node.kind is DistKind.OP and node.variant.value == "super"
        ]
        assert supers and all(
            isinstance(op, ColumnarSlidingOp)
            and isinstance(op._merge, ColumnarSuperAggregateOp)
            for op in supers
        )
        runs = [
            run({"TCP": tiny_trace.packets}, RoundRobinSplitter(6), 10.0)
            for run in (sim.run, sim.run_streaming)
        ]
        reference = run_centralized(dag, {"TCP": tiny_trace.packets})
        for result in runs:
            assert set(result.node_variants.values()) == {"sub", "super"}
            assert result.fallback_nodes == {}
            assert batches_equal(result.outputs["fanout"], reference["fanout"])


# -- pinned UDAF runs ------------------------------------------------------------

#: The UDAF plans pinned below, each deployed on 2 hosts x 2 partitions
#: under round-robin: LAST_VALUE (order-sensitive, SUB/SUPER), a UDAF
#: whose result column mixes int and float, a windowed set-union UDAF
#: (window reassembly over the fold) and an unmergeable one (FULL only).
PIN_PLANS = {
    "last_value": last_value_dag,
    "odd_as_float": lambda: _pin_dag(
        "SELECT tb, srcIP, ODD_AS_FLOAT(time) as t FROM TCP "
        "GROUP BY time as tb, srcIP"
    ),
    "windowed_distinct": lambda: _pin_dag(
        "SELECT tb, srcIP, DISTINCT_CNT(destIP) as dsts FROM TCP "
        "GROUP BY time as tb, srcIP RANGE 3 SLIDE 1"
    ),
    "median": lambda: _pin_dag(
        "SELECT srcIP, EXACT_MEDIAN(len) as med FROM TCP GROUP BY srcIP"
    ),
}


def _pin_dag(text):
    catalog = _catalog()
    catalog.define_query("udaf", text)
    return QueryDag.from_catalog(catalog)


#: (plan, streaming, execution) -> sha256 over the canonical outputs,
#: per-node counts, host CPU units and network meters, recorded with
#: the reference row operators adapted behind the kernel interface.
PINS = {
    ("last_value", False, "inprocess"):
        "eb5ac785034dcbae29a716f6c1af2c47524d601ec1b9b6add96c551f6d5d20c8",
    ("last_value", False, "parallel"):
        "eb5ac785034dcbae29a716f6c1af2c47524d601ec1b9b6add96c551f6d5d20c8",
    ("last_value", True, "inprocess"):
        "132352d5b4da244dd0a6db6ece775b5615db2c0981d92df25301e3ade1f6a0b2",
    ("last_value", True, "parallel"):
        "132352d5b4da244dd0a6db6ece775b5615db2c0981d92df25301e3ade1f6a0b2",
    ("odd_as_float", False, "inprocess"):
        "09fe69270b54a993140fa77c3206a3f0ef72d1f679bbdd1c7544881af78463a0",
    ("odd_as_float", False, "parallel"):
        "09fe69270b54a993140fa77c3206a3f0ef72d1f679bbdd1c7544881af78463a0",
    ("odd_as_float", True, "inprocess"):
        "9110f408f239e0eb5e243a2455fecb40253a0547032f000a2fcd6a214f878061",
    ("odd_as_float", True, "parallel"):
        "9110f408f239e0eb5e243a2455fecb40253a0547032f000a2fcd6a214f878061",
    ("windowed_distinct", False, "inprocess"):
        "1d4179244ed6ffe73b941078375ea36bf124bf2b8cc68033f56b52f91ccdde7b",
    ("windowed_distinct", False, "parallel"):
        "1d4179244ed6ffe73b941078375ea36bf124bf2b8cc68033f56b52f91ccdde7b",
    ("windowed_distinct", True, "inprocess"):
        "ce63df458091511c3db8cd4fba31d5ca1ba558f9ec0a00116a06f0a5e2da9bd8",
    ("windowed_distinct", True, "parallel"):
        "ce63df458091511c3db8cd4fba31d5ca1ba558f9ec0a00116a06f0a5e2da9bd8",
    ("median", False, "inprocess"):
        "f5230d7b261045658a1e74584c346534bcd63cc05fe01d30fa344db6fc49d64b",
    ("median", False, "parallel"):
        "f5230d7b261045658a1e74584c346534bcd63cc05fe01d30fa344db6fc49d64b",
    ("median", True, "inprocess"):
        "a8b20974c681d65fc449d1d8fde901970135ac33832b9ce87994529a28772ed6",
    ("median", True, "parallel"):
        "a8b20974c681d65fc449d1d8fde901970135ac33832b9ce87994529a28772ed6",
}


def udaf_digest(packets, plan, streaming, execution):
    """One pinned run's digest.  Outputs are compared canonically: a
    kernel emits groups in sorted key order, not first-seen order."""
    sim, splitter = deploy(PIN_PLANS[plan](), 2, None)
    result = sim.run(
        {"TCP": packets}, splitter, 10.0,
        streaming=streaming, execution=execution, workers=WORKERS,
    )
    assert result.execution == execution
    network = result.network
    digest = hashlib.sha256()
    for name in sorted(result.outputs):
        digest.update(repr((name, canonical(result.outputs[name]))).encode())
    digest.update(repr(sorted(result.node_output_counts.items())).encode())
    digest.update(repr([host.cpu_units for host in result.hosts]).encode())
    for meter in (
        network.tuples_received, network.bytes_received, network.link_tuples
    ):
        digest.update(repr(sorted(meter.items())).encode())
    return digest.hexdigest()


def _pin_id(case):
    plan, streaming, execution = case
    return f"{plan}-{'streaming' if streaming else 'oneshot'}-{execution}"


@pytest.mark.parametrize("case", sorted(PINS), ids=_pin_id)
def test_udaf_runs_match_pins(case, tiny_trace):
    assert udaf_digest(tiny_trace.packets, *case) == PINS[case]


def test_a_reversed_fold_fails_the_last_value_pins(tiny_trace, monkeypatch):
    """Known-bad companion: a fold that walks each group's slice last
    row first answers LAST_VALUE with the group's first value."""
    reverse_the_fold(monkeypatch)
    for case, pin in PINS.items():
        if case[0] == "last_value":
            assert udaf_digest(tiny_trace.packets, *case) != pin, case
