"""The §4.2.1 cost model: rates, placement, max-single-node network cost."""

import pytest

from repro.gsql.analyzer import NodeKind
from repro.partitioning import CostModel, PartitioningSet, choose_partitioning
from repro.partitioning.compatibility import node_basis
from repro.partitioning.cost_model import NodeCost, PlanCost

from tests.parity import qset_dag


@pytest.fixture
def model(complex_dag):
    return CostModel(
        complex_dag,
        input_rate=10_000,
        selectivity={"flows": 0.05, "heavy_flows": 0.5, "flow_pairs": 0.8},
    )


class TestRates:
    def test_leaf_input_rate_is_stream_rate(self, model):
        assert model.input_tuples("flows") == 10_000

    def test_output_rate_applies_selectivity(self, model):
        assert model.output_tuples("flows") == 500

    def test_rates_chain_through_dag(self, model):
        assert model.input_tuples("heavy_flows") == 500
        assert model.output_tuples("heavy_flows") == 250

    def test_join_input_sums_both_children(self, model):
        # flow_pairs reads heavy_flows twice (self-join)
        assert model.input_tuples("flow_pairs") == 500

    def test_out_tuple_sizes_from_schema(self, model, complex_dag):
        assert model.out_tuple_size("flows") == complex_dag.node(
            "flows"
        ).schema.tuple_width()

    def test_default_selectivity_by_kind(self, complex_dag):
        model = CostModel(complex_dag, input_rate=1000)
        # aggregation default is 0.1
        assert model.output_tuples("flows") == pytest.approx(100)

    def test_invalid_rate_rejected(self, complex_dag):
        with pytest.raises(ValueError):
            CostModel(complex_dag, input_rate=0)


class TestPlanCost:
    def test_empty_ps_costs_full_stream(self, model, complex_dag):
        cost = model.plan_cost(PartitioningSet.empty())
        width = complex_dag.node("TCP").schema.tuple_width()
        assert cost.max_network_bytes == 10_000 * width

    def test_fully_compatible_ps_costs_root_output(self, model):
        cost = model.plan_cost(PartitioningSet.of("srcIP"))
        # everything runs on leaves; the aggregator receives only the
        # delivered root output (flow_pairs)
        per_node = cost.per_node
        assert per_node["flows"].leaf_resident
        assert per_node["heavy_flows"].leaf_resident
        assert per_node["flow_pairs"].leaf_resident
        assert cost.max_network_bytes == per_node["flow_pairs"].output_bytes

    def test_partially_compatible_ps(self, model):
        cost = model.plan_cost(PartitioningSet.of("srcIP", "destIP"))
        per_node = cost.per_node
        assert per_node["flows"].leaf_resident
        assert not per_node["heavy_flows"].leaf_resident
        assert not per_node["flow_pairs"].leaf_resident
        # heavy_flows receives flows' output over the network
        assert per_node["heavy_flows"].network_bytes == pytest.approx(
            per_node["flows"].output_bytes
        )

    def test_ordering_matches_paper_intuition(self, model):
        """cost({srcIP}) < cost({srcIP,destIP}) < cost(empty): finer
        reconciliation that satisfies more queries wins."""
        full = model.plan_cost(PartitioningSet.of("srcIP")).max_network_bytes
        partial = model.plan_cost(
            PartitioningSet.of("srcIP", "destIP")
        ).max_network_bytes
        central = model.plan_cost(PartitioningSet.empty()).max_network_bytes
        assert full < partial < central

    def test_central_chain_below_central_node_costs_nothing_extra(self, model):
        """Once heavy_flows runs centrally, flow_pairs reads local data:
        its own network cost is zero."""
        cost = model.plan_cost(PartitioningSet.of("srcIP", "destIP"))
        assert cost.per_node["flow_pairs"].network_bytes == 0.0

    def test_str_summary(self, model):
        cost = model.plan_cost(PartitioningSet.of("srcIP"))
        assert "bytes/epoch" in str(cost)


class TestMeasuredSelectivities:
    def test_measured_values_are_ratios(self, complex_dag, small_trace):
        from repro.workloads import measure_selectivities

        measured = measure_selectivities(complex_dag, small_trace)
        assert set(measured) == {"flows", "heavy_flows", "flow_pairs"}
        assert 0 < measured["flows"] < 1
        # heavy_flows collapses (srcIP,destIP) groups to srcIP groups
        assert 0 < measured["heavy_flows"] <= 1


def _reference_plan_cost(dag, rate, ps):
    """§4.2.1 recomputed from the DAG alone, every figure per node and per
    candidate — the candidate-independent ones included."""
    selectivity = CostModel(dag, rate).selectivity_factor
    width = {node.name: node.schema.tuple_width() for node in dag.nodes()}
    tuples = {}
    resident = {}
    for node in dag.nodes():
        if node.kind is NodeKind.SOURCE:
            tuples[node.name] = rate
            resident[node.name] = True
            continue
        incoming = sum(tuples[child] for child in node.inputs)
        tuples[node.name] = incoming * selectivity(node)
        resident[node.name] = all(
            resident[child] for child in node.inputs
        ) and node_basis(node, dag).admits(ps)

    def out_bytes(name):
        return tuples[name] * width[name]

    per_node = {}
    worst = 0.0
    for node in dag.query_nodes():
        name = node.name
        if resident[name]:
            parents = dag.parents(name)
            crosses = not parents or any(not resident[p.name] for p in parents)
            network = out_bytes(name) if crosses else 0.0
        else:
            network = 0.0
            for child in dag.children(name):
                if resident[child.name]:
                    network += out_bytes(child.name)
        per_node[name] = NodeCost(
            name=name,
            input_tuples=sum(tuples[child] for child in node.inputs),
            output_tuples=tuples[name],
            input_bytes=sum(out_bytes(child) for child in node.inputs),
            output_bytes=out_bytes(name),
            leaf_resident=resident[name],
            network_bytes=network,
        )
        worst = max(worst, network)
    return PlanCost(ps, worst, per_node)


def test_query_set_candidates_cost_as_recomputed():
    """The 96-query catalog: the search costs every candidate from rates
    its model computed once, and remembers what it already costed.  Each
    candidate's cost — and the centralized baseline — equals, float for
    float, a recomputation from scratch and a fresh model's first answer."""
    dag = qset_dag(32)
    rate = 2000
    search = choose_partitioning(dag, input_rate=rate)
    assert len(search.explored) > 1
    costs = [(c.ps, c.cost) for c in search.explored]
    costs.append((PartitioningSet.empty(), search.centralized_cost))
    for ps, cost in costs:
        assert cost == _reference_plan_cost(dag, rate, ps), ps
        assert cost == CostModel(dag, rate).plan_cost(ps), ps
