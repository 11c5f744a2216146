"""The deployment advisor (repro.advisor)."""


from repro.advisor import DeploymentAdvisor
from repro.partitioning import FieldsConstraint, PartitioningSet


class TestAdvise:
    def test_report_structure(self, complex_dag, small_trace):
        advisor = DeploymentAdvisor(complex_dag)
        report = advisor.advise(small_trace, num_hosts=3)
        assert report.num_hosts == 3
        assert str(report.partitioning) == "{srcIP}"
        assert report.outputs_verified
        assert report.aggregator_cpu > 0
        assert set(report.selectivity) == {"flows", "heavy_flows", "flow_pairs"}
        assert "flow_pairs" in report.optimizer_decisions

    def test_summary_readable(self, complex_dag, small_trace):
        report = DeploymentAdvisor(complex_dag).advise(small_trace, 2)
        text = report.summary()
        assert "partitioning {srcIP}" in text
        assert "outputs verified" in text
        assert "== host 0" in report.render_plan()

    def test_what_if_override(self, complex_dag, small_trace):
        advisor = DeploymentAdvisor(complex_dag)
        recommended = advisor.advise(small_trace, 4)
        round_robin = advisor.advise(
            small_trace, 4, partitioning=PartitioningSet.empty()
        )
        assert round_robin.partitioning.is_empty
        assert round_robin.outputs_verified  # correctness regardless
        # the recommendation must beat the baseline on aggregator traffic
        assert recommended.aggregator_net < round_robin.aggregator_net

    def test_hardware_constraint_respected(self, complex_dag, small_trace):
        advisor = DeploymentAdvisor(
            complex_dag, hardware=FieldsConstraint.of("destIP")
        )
        report = advisor.advise(small_trace, 3)
        assert str(report.partitioning) == "{destIP}"
        assert report.outputs_verified

    def test_nothing_feasible_deploys_round_robin(self, catalog, small_trace):
        """No partitioning compatible with GROUP BY time, srcIP is
        computable from destIP alone: deploy round-robin, not a hash
        splitter on the infeasible {srcIP}."""
        from repro.plan import QueryDag

        catalog.define_query(
            "flows",
            "SELECT time, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time, srcIP",
        )
        advisor = DeploymentAdvisor(
            QueryDag.from_catalog(catalog), hardware=FieldsConstraint.of("destIP")
        )
        report = advisor.advise(small_trace, 2)
        assert report.partitioning.is_empty
        assert "round-robin" in report.simulation.splitter_description
        assert report.outputs_verified

    def test_overload_detection(self, complex_dag, small_trace):
        # absurdly small capacity: every host overloads
        report = DeploymentAdvisor(complex_dag).advise(
            small_trace, 2, host_capacity=1.0
        )
        assert report.overloaded_hosts
        assert "WARNING" in report.summary()

    def test_deliver_intermediate_views(self, jitter_dag, small_trace):
        advisor = DeploymentAdvisor(jitter_dag)
        report = advisor.advise(
            small_trace,
            3,
            deliver=["subnet_stats", "tcp_flows", "jitter"],
        )
        assert set(report.simulation.outputs) == {
            "subnet_stats",
            "tcp_flows",
            "jitter",
        }
        assert report.outputs_verified


class TestMinimumHosts:
    def test_finds_threshold(self, suspicious_dag, small_trace):
        advisor = DeploymentAdvisor(suspicious_dag)
        capacity = 1.1 * small_trace.rate  # tight: one host cannot cope
        minimum = advisor.minimum_hosts(
            small_trace, host_counts=(1, 2, 3, 4), host_capacity=capacity
        )
        assert minimum is not None
        assert minimum > 1
        # and the threshold is genuine: one host fewer is overloaded
        below = advisor.advise(
            small_trace, minimum - 1, host_capacity=capacity
        )
        busiest = max(
            below.simulation.cpu_load(h.index) for h in below.simulation.hosts
        )
        assert busiest >= 80.0

    def test_none_when_unreachable(self, suspicious_dag, small_trace):
        advisor = DeploymentAdvisor(suspicious_dag)
        minimum = advisor.minimum_hosts(
            small_trace, host_counts=(1, 2), host_capacity=0.5
        )
        assert minimum is None
