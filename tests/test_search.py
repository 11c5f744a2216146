"""The §4.2.2 dynamic-programming search for an optimal partitioning set."""


from repro.partitioning import (
    CostModel,
    FieldsConstraint,
    PartitioningSearch,
    PartitioningSet,
    choose_partitioning,
)


class TestComplexQuerySet:
    def test_paper_example_chooses_srcip(self, complex_dag):
        """§3.2: the optimal partitioning for flows/heavy_flows/flow_pairs
        is {srcIP}."""
        result = choose_partitioning(complex_dag, input_rate=100_000)
        assert str(result.partitioning) == "{srcIP}"

    def test_candidates_include_leaf_singleton(self, complex_dag):
        result = choose_partitioning(complex_dag, input_rate=100_000)
        candidate_sets = {str(c.ps) for c in result.explored}
        assert "{srcIP, destIP}" in candidate_sets  # flows' own set
        assert "{srcIP}" in candidate_sets  # reconciled with heavy_flows

    def test_best_cost_below_centralized(self, complex_dag):
        result = choose_partitioning(complex_dag, input_rate=100_000)
        assert (
            result.best.cost.max_network_bytes
            < result.centralized_cost.max_network_bytes
        )

    def test_summary_readable(self, complex_dag):
        result = choose_partitioning(complex_dag, input_rate=100_000)
        text = result.summary()
        assert "candidate" in text
        assert "optimal" in text


class TestQuerySetWithConflicts:
    def test_subnet_vs_jitter(self, jitter_dag):
        """§6.2: the aggregation prefers (srcIP & mask, destIP), the join
        (4-tuple); whichever wins must come from the explored candidates
        and the conflicting pair must reconcile to the agg's set."""
        selectivity = {"subnet_stats": 0.05, "tcp_flows": 0.1, "jitter": 0.08}
        result = choose_partitioning(
            jitter_dag, input_rate=100_000, selectivity=selectivity
        )
        explored = {str(c.ps) for c in result.explored}
        assert "{(srcIP & 0xfffffff0), destIP}" in explored
        assert "{srcIP, destIP, srcPort, destPort}" in explored
        assert not result.partitioning.is_empty

    def test_dominant_aggregation_drives_choice(self, jitter_dag):
        """When the aggregation dominates traffic, its set wins; when the
        join dominates, the join's set wins — the cost model decides."""
        agg_heavy = choose_partitioning(
            jitter_dag,
            input_rate=100_000,
            selectivity={"subnet_stats": 0.5, "tcp_flows": 0.01, "jitter": 0.01},
        )
        join_heavy = choose_partitioning(
            jitter_dag,
            input_rate=100_000,
            selectivity={"subnet_stats": 0.001, "tcp_flows": 0.6, "jitter": 0.9},
        )
        assert "0xfffffff0" in str(agg_heavy.partitioning)
        assert "srcPort" in str(join_heavy.partitioning)


class TestHardwareConstraints:
    def test_infeasible_optimum_projects_onto_hardware(self, complex_dag):
        """A splitter that can only see destIP cannot realize {srcIP}; the
        search projects candidates onto the hardware (subsets of
        compatible sets stay compatible, §3.5) and recommends {destIP} —
        compatible with the flows query, the workload's heaviest."""
        hardware = FieldsConstraint.of("destIP")
        result = choose_partitioning(
            complex_dag, input_rate=100_000, hardware=hardware
        )
        assert str(result.best.ps) == "{srcIP}"  # unconstrained optimum
        assert result.best_feasible is not None
        assert str(result.best_feasible.ps) == "{destIP}"
        assert result.partitioning == result.best_feasible.ps
        # the feasible fallback is worse than the optimum but far better
        # than centralized evaluation
        assert (
            result.best.cost.max_network_bytes
            < result.best_feasible.cost.max_network_bytes
            < result.centralized_cost.max_network_bytes
        )

    def test_feasible_subset_projection_api(self, complex_dag):
        hardware = FieldsConstraint.of("destIP", "srcPort")
        from repro.partitioning import PartitioningSet

        projected = hardware.feasible_subset(
            PartitioningSet.of("srcIP", "destIP", "srcPort")
        )
        assert str(projected) == "{destIP, srcPort}"

    def test_nothing_feasible_recommends_round_robin(self, catalog):
        """{srcIP} is the only compatible choice for GROUP BY time, srcIP
        and a destIP-only splitter cannot compute it: the search must
        recommend the empty set (round-robin) and say why, never hand
        back the infeasible optimum."""
        from repro.plan import QueryDag

        catalog.define_query(
            "flows",
            "SELECT time, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time, srcIP",
        )
        result = choose_partitioning(
            QueryDag.from_catalog(catalog),
            input_rate=100_000,
            hardware=FieldsConstraint.of("destIP"),
        )
        assert str(result.best.ps) == "{srcIP}"
        assert result.best_feasible is None
        assert result.partitioning.is_empty
        assert "no hardware-feasible partitioning exists" in result.summary()

    def test_feasible_subset_found(self, complex_dag):
        hardware = FieldsConstraint.of("srcIP")
        result = choose_partitioning(
            complex_dag, input_rate=100_000, hardware=hardware
        )
        assert result.best_feasible is not None
        assert str(result.best_feasible.ps) == "{srcIP}"


class TestSearchMechanics:
    def test_max_rounds_limits_exploration(self, complex_dag):
        model = CostModel(complex_dag, input_rate=1000)
        limited = PartitioningSearch(complex_dag, model, max_rounds=1).run()
        unlimited = PartitioningSearch(complex_dag, model).run()
        assert len(limited.explored) <= len(unlimited.explored)

    def test_selection_only_query_set_has_no_candidates(self, catalog):
        from repro.plan import QueryDag

        catalog.define_query("sel", "SELECT srcIP FROM TCP WHERE len > 10")
        dag = QueryDag.from_catalog(catalog)
        result = choose_partitioning(dag, input_rate=1000)
        assert result.best is None
        assert result.partitioning.is_empty

    def test_single_aggregation(self, suspicious_dag):
        result = choose_partitioning(suspicious_dag, input_rate=100_000)
        assert str(result.partitioning) == "{srcIP, destIP, srcPort, destPort}"

    def test_explored_candidates_all_nonempty(self, jitter_dag):
        result = choose_partitioning(jitter_dag, input_rate=1000)
        assert all(not c.ps.is_empty for c in result.explored)
