"""The system's central correctness property, tested exhaustively:

Every distributed plan the optimizer produces — any configuration, any
splitter, any cluster size — must deliver exactly the outputs of the
centralized reference execution (partition compatibility is *defined* by
that equality, paper §3.4; the transformations of §5 must preserve it even
when the actual partitioning differs from the recommended one).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distopt import DistributedOptimizer, Placement
from repro.engine import batches_equal, run_centralized
from repro.engine.operators import build_operator
from repro.gsql.catalog import Catalog
from repro.gsql.schema import tcp_schema
from repro.partitioning import PartitioningSet
from repro.plan import QueryDag
from repro.traces import TraceConfig, generate_trace
from repro.workloads import complex_catalog, sliding_flows_catalog

from tests.parity import deploy


def run_distributed(dag, trace_packets, hosts, ps, merge_local=True, deliver=None):
    sim, splitter = deploy(dag, hosts, ps, deliver, merge_local)
    return sim.run({"TCP": trace_packets}, splitter, duration_sec=10.0)


PS_CHOICES = [
    None,
    PartitioningSet.of("srcIP"),
    PartitioningSet.of("srcIP", "destIP"),
    PartitioningSet.of("srcIP & 0xFFF0"),
    PartitioningSet.of("srcIP % 16"),
    PartitioningSet.of("destIP"),
    PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort"),
]


@pytest.mark.parametrize("hosts", [1, 2, 4])
@pytest.mark.parametrize("ps", PS_CHOICES, ids=str)
class TestEquivalenceAcrossWorkloads:
    def test_suspicious_flows(self, suspicious_dag, tiny_trace, hosts, ps):
        result = run_distributed(suspicious_dag, tiny_trace.packets, hosts, ps)
        reference = run_centralized(suspicious_dag, {"TCP": tiny_trace.packets})
        assert batches_equal(
            result.outputs["suspicious_flows"], reference["suspicious_flows"]
        )

    def test_complex_query_set(self, complex_dag, tiny_trace, hosts, ps):
        result = run_distributed(
            complex_dag,
            tiny_trace.packets,
            hosts,
            ps,
            deliver=["flows", "heavy_flows", "flow_pairs"],
        )
        reference = run_centralized(complex_dag, {"TCP": tiny_trace.packets})
        for name in ("flows", "heavy_flows", "flow_pairs"):
            assert batches_equal(result.outputs[name], reference[name]), name


@pytest.mark.parametrize("merge_local", [True, False])
def test_jitter_workload_equivalence(jitter_dag, tiny_trace, merge_local):
    for ps in (None, PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort")):
        result = run_distributed(
            jitter_dag,
            tiny_trace.packets,
            4,
            ps,
            merge_local=merge_local,
            deliver=["subnet_stats", "tcp_flows", "jitter"],
        )
        reference = run_centralized(jitter_dag, {"TCP": tiny_trace.packets})
        for name in ("subnet_stats", "tcp_flows", "jitter"):
            assert batches_equal(result.outputs[name], reference[name]), name


class TestOuterJoinEquivalence:
    @pytest.fixture
    def outer_dag(self):
        catalog = Catalog()
        catalog.add_stream(tcp_schema())
        catalog.load_script(
            """
            DEFINE QUERY flows AS
            SELECT tb, srcIP, COUNT(*) as cnt
            FROM TCP GROUP BY time as tb, srcIP;

            DEFINE QUERY persistence AS
            SELECT S1.tb, S1.srcIP, S1.cnt as c1, S2.cnt as c2
            FROM flows S1 LEFT OUTER JOIN flows S2
            ON S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1;
            """
        )
        return QueryDag.from_catalog(catalog)

    @pytest.mark.parametrize("hosts", [1, 3])
    @pytest.mark.parametrize(
        "ps", [None, PartitioningSet.of("srcIP")], ids=["round-robin", "srcIP"]
    )
    def test_left_outer_join(self, outer_dag, tiny_trace, hosts, ps):
        result = run_distributed(outer_dag, tiny_trace.packets, hosts, ps)
        reference = run_centralized(outer_dag, {"TCP": tiny_trace.packets})
        assert batches_equal(result.outputs["persistence"], reference["persistence"])


class TestSlidingWindowOracle:
    """The oracle answers ``RANGE/SLIDE`` over its sliding windows — it
    used to compile every aggregation as tumbling, so a sliding query was
    only ever compared with itself."""

    @pytest.mark.parametrize("streaming", (False, True), ids=("oneshot", "streaming"))
    @pytest.mark.parametrize(
        "ps", [None, PartitioningSet.of("srcIP")], ids=["round-robin", "srcIP"]
    )
    def test_runtime_equals_centralized_and_not_tumbling(self, ps, streaming):
        _, dag = sliding_flows_catalog()
        packets = generate_trace(TraceConfig(duration=8, rate=300)).packets
        reference = run_centralized(dag, {"TCP": packets})["sliding_flows"]
        tumbling = build_operator(dag.node("sliding_flows")).process(packets)
        assert len(reference) > len(tumbling) > 0
        sim, splitter = deploy(dag, 2, ps)
        delivered = sim.run(
            {"TCP": packets}, splitter, 8.0, streaming=streaming
        ).outputs["sliding_flows"]
        assert batches_equal(delivered, reference)
        assert not batches_equal(delivered, tumbling)


class TestMixedShapeDag:
    """A DAG exercising every optimizer rule at once: selections and a
    union feeding an aggregation feeding a join."""

    @pytest.fixture
    def mixed_dag(self):
        catalog = Catalog()
        catalog.add_stream(tcp_schema())
        catalog.load_script(
            """
            DEFINE QUERY web AS
            SELECT time, srcIP, destIP, len FROM TCP WHERE destPort IN (80, 443);

            DEFINE QUERY mail AS
            SELECT time, srcIP, destIP, len FROM TCP WHERE destPort = 25;

            DEFINE QUERY interesting AS
            SELECT time, srcIP, destIP, len FROM web
            UNION
            SELECT time, srcIP, destIP, len FROM mail;

            DEFINE QUERY talkers AS
            SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes
            FROM interesting GROUP BY time/2 as tb, srcIP;

            DEFINE QUERY persistent AS
            SELECT S1.tb, S1.srcIP, S1.cnt as c1, S2.cnt as c2
            FROM talkers S1, talkers S2
            WHERE S1.srcIP = S2.srcIP and S2.tb = S1.tb + 1;
            """
        )
        return QueryDag.from_catalog(catalog)

    @pytest.mark.parametrize("hosts", [1, 2, 4])
    @pytest.mark.parametrize(
        "ps",
        [None, PartitioningSet.of("srcIP"), PartitioningSet.of("destIP")],
        ids=["round-robin", "srcIP", "destIP"],
    )
    def test_equivalence(self, mixed_dag, tiny_trace, hosts, ps):
        result = run_distributed(
            mixed_dag,
            tiny_trace.packets,
            hosts,
            ps,
            deliver=["interesting", "talkers", "persistent"],
        )
        reference = run_centralized(mixed_dag, {"TCP": tiny_trace.packets})
        for name in ("interesting", "talkers", "persistent"):
            assert batches_equal(result.outputs[name], reference[name]), name

    def test_plan_shape_under_srcip(self, mixed_dag):
        """Under {srcIP} everything pushes: the union's branch selections,
        the aggregation (per coverage cluster), and the self-join."""
        placement = Placement(3, 2)
        plan = DistributedOptimizer(
            mixed_dag, placement, PartitioningSet.of("srcIP")
        ).optimize()
        assert len(plan.ops_for("web")) == 3
        assert len(plan.ops_for("mail")) == 3
        assert len(plan.ops_for("talkers")) == 3  # clustered per host
        assert len(plan.ops_for("persistent")) == 3


# --- property-based: random mini-traces, every configuration ----------------

mini_packets = st.lists(
    st.builds(
        dict,
        time=st.integers(min_value=0, max_value=4),
        timestamp=st.integers(min_value=0, max_value=4_000_000),
        srcIP=st.integers(min_value=0, max_value=7),
        destIP=st.integers(min_value=0, max_value=3),
        srcPort=st.integers(min_value=1, max_value=5),
        destPort=st.sampled_from([80, 443]),
        protocol=st.just(6),
        flags=st.sampled_from([0x02, 0x10, 0x18, 0x29, 0x01]),
        len=st.integers(min_value=40, max_value=1500),
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(
    packets=mini_packets,
    hosts=st.integers(min_value=1, max_value=4),
    ps_index=st.integers(min_value=0, max_value=len(PS_CHOICES) - 1),
)
def test_random_traces_equivalent(packets, hosts, ps_index):
    packets.sort(key=lambda p: (p["time"], p["timestamp"]))
    _, dag = complex_catalog(epoch_seconds=2)
    ps = PS_CHOICES[ps_index]
    result = run_distributed(
        dag, packets, hosts, ps, deliver=["flows", "heavy_flows", "flow_pairs"]
    )
    reference = run_centralized(dag, {"TCP": packets})
    for name in ("flows", "heavy_flows", "flow_pairs"):
        assert batches_equal(result.outputs[name], reference[name]), name
