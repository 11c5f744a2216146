"""Partition-compatibility inference (§3.4-3.5) — structural and semantic."""

import pytest

from repro.cluster import ClusterSimulator
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import batches_equal, run_centralized
from repro.partitioning import (
    PartitioningSet,
    choose_partitioning,
    compatible_set,
    is_compatible,
    node_basis,
    subset_sets,
    temporal_attributes,
)
from repro.cluster.splitter import HashSplitter
from repro.plan import QueryDag
from repro.traces import TraceConfig, generate_trace
from tests.split_reference import reference_split


class TestTemporalAttributes:
    def test_tcp_temporals(self, complex_dag):
        assert temporal_attributes(complex_dag) == {"time", "timestamp"}


class TestAggregationCompatibility:
    def test_paper_flows_maximal_set(self, complex_dag):
        ps = compatible_set(complex_dag.node("flows"), complex_dag)
        assert str(ps) == "{srcIP, destIP}"

    def test_temporal_excluded_by_default(self, complex_dag):
        ps = compatible_set(complex_dag.node("flows"), complex_dag)
        assert "time" not in str(ps)

    def test_temporal_included_when_requested(self, complex_dag):
        ps = compatible_set(
            complex_dag.node("flows"), complex_dag, exclude_temporal=False
        )
        assert "time" in str(ps)

    def test_subset_compatible(self, complex_dag):
        """Any subset of a compatible set is compatible (§3.5.2)."""
        flows = complex_dag.node("flows")
        maximal = compatible_set(flows, complex_dag)
        for subset in subset_sets(maximal):
            assert is_compatible(subset, flows, complex_dag)

    def test_scalar_function_of_group_by_compatible(self, complex_dag):
        flows = complex_dag.node("flows")
        assert is_compatible(
            PartitioningSet.of("srcIP & 0xFFF0"), flows, complex_dag
        )
        assert is_compatible(
            PartitioningSet.of("srcIP & 0xFFF0", "destIP & 0xFF00"),
            flows,
            complex_dag,
        )

    def test_non_group_by_attribute_incompatible(self, suspicious_dag):
        node = suspicious_dag.node("suspicious_flows")
        assert not is_compatible(PartitioningSet.of("len"), node, suspicious_dag)

    def test_higher_level_aggregation(self, complex_dag):
        heavy = complex_dag.node("heavy_flows")
        assert is_compatible(PartitioningSet.of("srcIP"), heavy, complex_dag)
        assert not is_compatible(
            PartitioningSet.of("srcIP", "destIP"), heavy, complex_dag
        )

    def test_empty_set_never_compatible(self, complex_dag):
        assert not is_compatible(
            PartitioningSet.empty(), complex_dag.node("flows"), complex_dag
        )


class TestJoinCompatibility:
    def test_join_compatible_with_its_key(self, complex_dag):
        pairs = complex_dag.node("flow_pairs")
        assert is_compatible(PartitioningSet.of("srcIP"), pairs, complex_dag)

    def test_join_strict_rule_rejects_coarsening(self, complex_dag):
        """The paper's §3.5.3 rule: only the predicate expressions and
        subsets qualify, not arbitrary functions of them (experiment 2
        relies on this)."""
        pairs = complex_dag.node("flow_pairs")
        assert not is_compatible(
            PartitioningSet.of("srcIP & 0xFFF0"), pairs, complex_dag
        )

    def test_relaxed_rule_allows_coarsening_for_self_join(self, complex_dag):
        basis = node_basis(
            complex_dag.node("flow_pairs"), complex_dag, join_coarsening=True
        )
        assert basis.admits(PartitioningSet.of("srcIP & 0xFFF0"))

    def test_join_incompatible_with_non_key(self, complex_dag):
        pairs = complex_dag.node("flow_pairs")
        assert not is_compatible(
            PartitioningSet.of("destIP"), pairs, complex_dag
        )

    def test_jitter_join_four_tuple(self, jitter_dag):
        jitter = jitter_dag.node("jitter")
        four = PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")
        assert is_compatible(four, jitter, jitter_dag)
        masked = PartitioningSet.of("srcIP & 0xFFFFFFF0", "destIP")
        assert not is_compatible(masked, jitter, jitter_dag)


class TestAlwaysCompatibleNodes:
    def test_selection_always(self, catalog):
        from repro.plan import QueryDag

        catalog.define_query("sel", "SELECT srcIP, len FROM TCP WHERE len > 100")
        dag = QueryDag.from_catalog(catalog)
        node = dag.node("sel")
        basis = node_basis(node, dag)
        assert basis.always
        assert compatible_set(node, dag) is None
        assert is_compatible(PartitioningSet.of("len"), node, dag)

    def test_source_always(self, complex_dag):
        basis = node_basis(complex_dag.node("TCP"), complex_dag)
        assert basis.always


class TestSemanticCompatibility:
    """The definition itself (§3.4): a compatible partitioning's per-
    partition outputs union to the centralized output."""

    @pytest.mark.parametrize(
        "ps_spec",
        [("srcIP",), ("srcIP", "destIP"), ("srcIP & 0xFFF0",)],
    )
    def test_flows_union_equals_centralized(self, complex_dag, tiny_trace, ps_spec):
        ps = PartitioningSet.of(*ps_spec)
        flows = complex_dag.node("flows")
        assert is_compatible(ps, flows, complex_dag)
        reference = run_centralized(complex_dag, {"TCP": tiny_trace.packets})
        splitter = HashSplitter(4, ps)
        union = []
        from repro.engine.operators import build_operator

        for part in reference_split(splitter, tiny_trace.packets):
            union.extend(build_operator(flows).process(part))
        assert batches_equal(union, reference["flows"])

    def test_incompatible_partitioning_differs(self, complex_dag, tiny_trace):
        """Round-robin-style splitting by a non-key attribute breaks the
        union property for the aggregation (groups split across
        partitions are double-counted)."""
        from repro.engine.operators import build_operator

        flows = complex_dag.node("flows")
        ps = PartitioningSet.of("len")  # not a function of any group-by
        assert not is_compatible(ps, flows, complex_dag)
        reference = run_centralized(complex_dag, {"TCP": tiny_trace.packets})
        splitter = HashSplitter(4, ps)
        union = []
        for part in reference_split(splitter, tiny_trace.packets):
            union.extend(build_operator(flows).process(part))
        assert not batches_equal(union, reference["flows"])

    def test_equal_int_and_float_keys_share_a_partition(self, catalog):
        """``MAX2(len, 100.0)`` is ``100`` where ``len`` is 100 and
        ``100.0`` where it is less: one group, so one partition.  The
        trace has both (2 packets of length 100 and 165 shorter ones, all
        in the one epoch); hashing the two apart split the group and
        delivered 1 306 rows where the centralized run has 1 305."""
        catalog.define_query(
            "capped",
            "SELECT tb, m, COUNT(*) as cnt FROM TCP "
            "GROUP BY time/60 as tb, MAX2(len, 100.0) as m",
        )
        dag = QueryDag.from_catalog(catalog)
        ps = choose_partitioning(dag, 2000).partitioning
        assert str(ps) == "{MAX2(len, 100.0)}"
        packets = generate_trace(TraceConfig(duration=2, rate=2000, seed=1)).packets
        lengths = [packet["len"] for packet in packets]
        assert 100 in lengths and min(lengths) < 100
        plan = DistributedOptimizer(dag, Placement(2, 2), ps).optimize()
        result = ClusterSimulator(dag, plan, stream_rate=2000).run(
            {"TCP": packets}, HashSplitter(4, ps), duration_sec=2
        )
        reference = run_centralized(dag, {"TCP": packets})["capped"]
        assert len(reference) == 1305
        assert batches_equal(result.outputs["capped"], reference)
