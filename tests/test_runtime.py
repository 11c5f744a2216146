"""The layered runtime: backends, the unified session, and the recorder.

The load-bearing contract: row-vs-columnar resolution happens once, at
plan-compile time — the execution loop never consults operator-builder
capability per batch — and every counter flows through the
MetricsRecorder while staying identical to the facade-era numbers.
"""

import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    HashSplitter,
    RoundRobinSplitter,
)
from repro.cluster.costs import DEFAULT_COSTS
from repro.cluster.host import Host
from repro.cluster.network import NetworkMeter
from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import DistKind
from repro.partitioning import PartitioningSet
from repro.engine.aggregates import AggregateFunction, register_aggregate
from repro.engine.columnar import ColumnBatch
from repro.gsql.catalog import Catalog
from repro.gsql.schema import tcp_schema
from repro.plan import QueryDag
from repro.runtime import (
    Fault,
    FaultPlan,
    QueuePolicy,
    RebalancePolicy,
    RunOptions,
)
from repro.runtime import backend as backend_module
from repro.runtime.backend import ColumnarBackend, RowBackend, create_backend
from repro.runtime.metrics import MetricsRecorder
from repro.workloads import Configuration, overload_sweep, run_configuration

from tests.parity import (
    WORKLOADS,
    assert_identical_simulation,
    assert_same_simulation,
)


class _LastValue(AggregateFunction):
    """A UDAF with no vectorized kernel — forces a columnar row fallback."""

    name = "LAST_VALUE"
    splittable = True

    def initial(self):
        return None

    def update(self, state, value):
        return value

    def merge(self, state, other):
        return other if other is not None else state

    def final(self, state):
        return state


register_aggregate(_LastValue())


@pytest.fixture
def udaf_dag():
    """A DAG whose aggregate only the row engine can run."""
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.define_query(
        "latest",
        "SELECT tb, srcIP, LAST_VALUE(len) as last_len FROM TCP "
        "GROUP BY time as tb, srcIP",
    )
    return QueryDag.from_catalog(catalog)


def _complex_plan(dag, hosts=3, ps=PartitioningSet.of("srcIP")):
    placement = Placement(hosts, 2)
    deliver = ["flows", "heavy_flows", "flow_pairs"]
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    return plan, HashSplitter(placement.num_partitions, ps)


def _nodes_by_kind(dag, plan):
    """Map node-kind labels to one representative dist node each."""
    picked = {}
    for node in plan.topological():
        if node.kind is DistKind.SOURCE:
            continue
        if node.kind in (DistKind.MERGE, DistKind.NULLPAD):
            picked[node.kind.value] = node
        else:
            picked[dag.node(node.query).kind.value] = node
    return picked


class TestCompileTimeResolution:
    def test_columnar_backend_compiles_every_kind_natively(self, complex_dag):
        """Joins (and with them the fig13/fig14 complex plans) no longer
        row-fall-back: every node kind has a vectorized kernel."""
        plan, _ = _complex_plan(complex_dag)
        columnar = ColumnarBackend(complex_dag)
        kinds = _nodes_by_kind(complex_dag, plan)
        assert "join" in kinds
        for label, node in kinds.items():
            assert columnar.supports(node) is True, label
            assert columnar.compile_node(node).columnar is True, label

    def test_unvectorizable_udaf_resolves_to_row_at_compile(self, udaf_dag):
        """The only remaining fallback reason: an aggregate with no
        vectorized kernel.  The fallback shares the row backend's
        compiled operator."""
        plan = DistributedOptimizer(udaf_dag, Placement(2, 2), None).optimize()
        columnar = ColumnarBackend(udaf_dag)
        fallbacks = [
            node
            for node in plan.topological()
            if node.kind is not DistKind.SOURCE and not columnar.supports(node)
        ]
        assert fallbacks
        for node in fallbacks:
            compiled = columnar.compile_node(node)
            assert compiled.columnar is False
            assert compiled is columnar._row.compile_node(node)

    def test_row_backend_supports_everything(self, complex_dag):
        plan, _ = _complex_plan(complex_dag)
        row = RowBackend(complex_dag)
        for node in plan.topological():
            if node.kind is not DistKind.SOURCE:
                assert row.supports(node)

    def test_create_backend_rejects_unknown_engine(self, complex_dag):
        with pytest.raises(ValueError):
            create_backend("simd", complex_dag)

    @pytest.mark.parametrize("engine", ("row", "columnar"))
    @pytest.mark.parametrize("streaming", (False, True))
    def test_no_per_batch_fallback_path_executes(
        self, engine, streaming, complex_dag, tiny_trace, monkeypatch
    ):
        """After session construction, execution never consults the
        operator builders again: the row-vs-columnar decision is frozen
        into CompiledOperators at plan-compile time."""
        plan, splitter = _complex_plan(complex_dag)
        sim = ClusterSimulator(complex_dag, plan, stream_rate=1000, engine=engine)

        def forbidden(*args, **kwargs):
            raise AssertionError("operator compilation during execution")

        monkeypatch.setattr(backend_module, "build_variant_operator", forbidden)
        monkeypatch.setattr(backend_module, "build_columnar_operator", forbidden)
        monkeypatch.setattr(
            type(sim.session.backend), "supports", forbidden, raising=True
        )
        run = sim.run_streaming if streaming else sim.run
        result = run({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert set(result.outputs) == {"flows", "heavy_flows", "flow_pairs"}
        assert sum(result.node_output_counts.values()) > 0

    def test_session_wrappers_share_one_driver(self, complex_dag, tiny_trace):
        """run()/run_streaming() are wrappers over ExecutionSession.execute;
        driving the session directly reproduces them exactly."""
        plan, splitter = _complex_plan(complex_dag)
        sim = ClusterSimulator(complex_dag, plan, stream_rate=1000)
        facade = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
        direct = sim.session.execute({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert_same_simulation(facade, direct)


class TestNodeStats:
    @pytest.fixture(scope="class")
    def run(self, tiny_trace):
        from repro.workloads import suspicious_flows_catalog

        _, dag = suspicious_flows_catalog()
        placement = Placement(3, 2)
        ps = PartitioningSet.of("srcIP")
        plan = DistributedOptimizer(dag, placement, ps).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=1000, engine="columnar")
        splitter = HashSplitter(placement.num_partitions, ps)
        result = sim.run_streaming({"TCP": tiny_trace.packets}, splitter, 10.0)
        return plan, result

    def test_rows_out_match_output_counts(self, run):
        plan, result = run
        for node in plan.topological():
            if node.kind is DistKind.SOURCE:
                continue
            stats = result.node_stats[node.node_id]
            assert stats.rows_out == result.node_output_counts[node.node_id]

    def test_counters_accumulate_over_steps(self, run):
        plan, result = run
        epochs = result.timeline.num_epochs
        for node_id, stats in result.node_stats.items():
            assert stats.steps == epochs + 1, node_id  # every epoch + flush
            assert stats.rows_in >= 0
            assert stats.bytes_out >= 0.0
            assert stats.wall_seconds >= 0.0


class TestMetricsRecorder:
    def _recorder(self, hosts=2, **kwargs):
        return MetricsRecorder(
            [Host(i, 1000.0) for i in range(hosts)],
            NetworkMeter(),
            DEFAULT_COSTS,
            **kwargs,
        )

    def test_transfer_meters_and_charges_both_ends(self):
        recorder = self._recorder()
        recorder.record_transfer(0, 1, 10, 4.0)
        assert recorder.network.link_tuples[(0, 1)] == 10
        assert recorder.network.bytes_received[1] == 40.0
        assert recorder.hosts[0].by_category == {
            "send": 10 * DEFAULT_COSTS.send_remote
        }
        assert recorder.hosts[1].by_category == {
            "ingest-remote": 10 * DEFAULT_COSTS.receive_remote
        }

    def test_reset_zeroes_everything(self):
        recorder = self._recorder(record_events=True)
        recorder.begin_epoch(0)
        recorder.record_transfer(0, 1, 5, 2.0)
        recorder.record_node_step("n", 5, 3, 2.0, 0.001)
        recorder.reset()
        assert recorder.network.total_tuples() == 0
        assert all(host.cpu_units == 0.0 for host in recorder.hosts)
        assert recorder.node_stats == {}
        assert recorder.events == []

    def test_flush_folds_into_last_epoch_bucket(self):
        recorder = self._recorder()
        recorder.begin_epoch(0)
        recorder.charge(0, 1.0, "work")
        recorder.begin_flush()
        recorder.charge(0, 2.0, "work")
        timeline = recorder.build_timeline([0])
        assert timeline.host_cpu[0] == [3.0]

    def test_unexpected_kind_rejected(self, complex_dag):
        plan, _ = _complex_plan(complex_dag)
        recorder = self._recorder(hosts=3)
        op_node = next(
            n for n in plan.topological() if n.kind is DistKind.OP
        )
        with pytest.raises(ValueError):
            recorder.charge_processing(op_node, None, 1, 1)

    def test_event_trace_is_json_lines(self, suspicious_dag, tiny_trace, tmp_path):
        placement = Placement(2, 2)
        plan = DistributedOptimizer(suspicious_dag, placement, None).optimize()
        sim = ClusterSimulator(
            suspicious_dag, plan, stream_rate=1000, record_events=True
        )
        sim.run_streaming(
            {"TCP": tiny_trace.packets},
            RoundRobinSplitter(placement.num_partitions),
            10.0,
        )
        path = tmp_path / "events.jsonl"
        with open(path, "w") as handle:
            count = sim.metrics.dump_events(handle)
        lines = path.read_text().splitlines()
        assert len(lines) == count > 0
        events = [json.loads(line) for line in lines]
        kinds = {event["event"] for event in events}
        assert kinds == {"compile", "epoch", "execution", "node", "transfer"}
        # Every event is attributable: host (None for cluster-wide) + pid.
        assert all("host" in e and e["pid"] is not None for e in events)
        (mode_event,) = [e for e in events if e["event"] == "execution"]
        assert mode_event["mode"] == "inprocess"
        # Compile events record each node's engine resolution; on a fully
        # vectorizable plan none is a fallback.
        compile_events = [e for e in events if e["event"] == "compile"]
        assert compile_events
        assert all(e["fallback"] is False for e in compile_events)
        # Every node step is attributed to an epoch (or the flush phase).
        node_events = [e for e in events if e["event"] == "node"]
        assert node_events and all("epoch" in e for e in node_events)
        assert any(e.get("epoch") == "flush" for e in events)

    def test_events_off_by_default(self, suspicious_dag, tiny_trace):
        placement = Placement(2, 2)
        plan = DistributedOptimizer(suspicious_dag, placement, None).optimize()
        sim = ClusterSimulator(suspicious_dag, plan, stream_rate=1000)
        sim.run_streaming(
            {"TCP": tiny_trace.packets},
            RoundRobinSplitter(placement.num_partitions),
            10.0,
        )
        assert sim.metrics.events == []


class TestFallbackObservability:
    """Compile-time row fallbacks are counted, labelled, and traced —
    never silent."""

    def _run(self, dag, tiny_trace, engine, record_events=False):
        placement = Placement(2, 2)
        plan = DistributedOptimizer(dag, placement, None).optimize()
        sim = ClusterSimulator(
            dag, plan, stream_rate=1000, engine=engine,
            record_events=record_events,
        )
        result = sim.run(
            {"TCP": tiny_trace.packets},
            RoundRobinSplitter(placement.num_partitions),
            10.0,
        )
        return sim, result

    def test_udaf_fallback_is_recorded(self, udaf_dag, tiny_trace):
        sim, result = self._run(udaf_dag, tiny_trace, "columnar")
        assert result.fallback_nodes
        assert sim.metrics.fallback_count == len(result.fallback_nodes)
        for label in result.fallback_nodes.values():
            assert label.startswith("latest/")

    def test_row_engine_reports_no_fallbacks(self, udaf_dag, tiny_trace):
        _, result = self._run(udaf_dag, tiny_trace, "row")
        assert result.fallback_nodes == {}

    def test_fallback_appears_in_event_trace(self, udaf_dag, tiny_trace):
        sim, result = self._run(
            udaf_dag, tiny_trace, "columnar", record_events=True
        )
        compile_events = [
            e for e in sim.metrics.events if e["event"] == "compile"
        ]
        flagged = {e["node"] for e in compile_events if e["fallback"]}
        assert flagged == set(result.fallback_nodes)

    def test_fallbacks_survive_recorder_reset_across_runs(
        self, udaf_dag, tiny_trace
    ):
        """Each run replays the compile decisions into the freshly reset
        recorder, so the second run reports the same fallbacks."""
        sim, first = self._run(udaf_dag, tiny_trace, "columnar")
        second = sim.run(
            {"TCP": tiny_trace.packets},
            RoundRobinSplitter(4),
            10.0,
        )
        assert second.fallback_nodes == first.fallback_nodes

    def test_fully_vectorized_plan_has_no_fallbacks(
        self, complex_dag, tiny_trace
    ):
        _, result = self._run(complex_dag, tiny_trace, "columnar")
        assert result.fallback_nodes == {}


def _with_junk(trace):
    """The trace's columns plus one no query can read (and no kernel
    could: it is not even numeric)."""
    batch = trace.column_batch()
    junk = np.array([f"junk-{i}" for i in range(len(batch))], dtype=object)
    return ColumnBatch({**batch.columns, "junk": junk}, len(batch))


class TestLineagePruning:
    """Source columns no plan node, splitter or epoch slicer reads are
    dropped before the stream is sliced and split — and say so."""

    def test_complex_catalog_reads_three_columns(self, complex_dag, tiny_trace):
        plan, splitter = _complex_plan(complex_dag)
        sim = ClusterSimulator(
            complex_dag, plan, stream_rate=1000, engine="columnar"
        )
        result = sim.run_streaming(
            {"TCP": tiny_trace.column_batch()}, splitter, 10.0
        )
        kept, dropped = result.source_columns["TCP"]
        assert set(kept) == {"time", "srcIP", "destIP"}
        assert sorted(kept + dropped) == sorted(tiny_trace.columns)

    def test_suspicious_catalog_reads_seven_of_nine(
        self, suspicious_dag, tiny_trace
    ):
        plan = DistributedOptimizer(suspicious_dag, Placement(2, 2), None).optimize()
        sim = ClusterSimulator(
            suspicious_dag, plan, stream_rate=1000, engine="columnar"
        )
        result = sim.run(
            {"TCP": tiny_trace.column_batch()}, RoundRobinSplitter(4), 10.0
        )
        kept, dropped = result.source_columns["TCP"]
        assert len(kept) == 7
        assert sorted(dropped) == ["protocol", "timestamp"]

    def test_splitter_and_epoch_columns_ride_along(self, catalog, tiny_trace):
        """Neither ``time`` nor ``destPort`` is read by the query; slicing
        and hashing still need them."""
        catalog.define_query("big", "SELECT srcIP, len FROM TCP WHERE len > 100")
        dag = QueryDag.from_catalog(catalog)
        ps = PartitioningSet.of("destPort")
        plan = DistributedOptimizer(dag, Placement(2, 2), ps).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=1000, engine="columnar")
        result = sim.run_streaming(
            {"TCP": tiny_trace.column_batch()}, HashSplitter(4, ps), 10.0
        )
        kept, _ = result.source_columns["TCP"]
        assert set(kept) == {"srcIP", "len", "time", "destPort"}
        assert len(result.outputs["big"]) == sum(
            1 for packet in tiny_trace.packets if packet["len"] > 100
        )

    def test_join_over_the_raw_stream(self, catalog, tiny_trace):
        """A join reading the source directly keeps its equality columns
        and the ``alias.column`` references of SELECT and residual."""
        catalog.define_query(
            "echo",
            "SELECT A.time, A.srcIP, B.len as reply_len FROM TCP A, TCP B "
            "WHERE A.time = B.time and A.srcIP = B.destIP and A.flags < B.flags",
        )
        dag = QueryDag.from_catalog(catalog)
        plan = DistributedOptimizer(dag, Placement(2, 2), None).optimize()
        results = {}
        for engine in ("row", "columnar"):
            sim = ClusterSimulator(dag, plan, stream_rate=1000, engine=engine)
            results[engine] = sim.run(
                {"TCP": tiny_trace.column_batch()}, RoundRobinSplitter(4), 10.0
            )
        kept, _ = results["columnar"].source_columns["TCP"]
        assert set(kept) == {"time", "srcIP", "destIP", "len", "flags"}
        assert results["row"].source_columns == {}  # row batches stay whole
        assert_same_simulation(results["row"], results["columnar"])

    def test_row_batches_are_pruned_once_columnar(self, complex_dag, tiny_trace):
        plan, splitter = _complex_plan(complex_dag)
        sim = ClusterSimulator(
            complex_dag, plan, stream_rate=1000, engine="columnar"
        )
        result = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert set(result.source_columns["TCP"][0]) == {"time", "srcIP", "destIP"}

    @pytest.mark.parametrize("execution", ("inprocess", "parallel"))
    @pytest.mark.parametrize(
        "control",
        (
            {},
            {"queue_policy": QueuePolicy(30, "block")},
            {"queue_policy": QueuePolicy(30, "drop-oldest")},
            {"queue_policy": QueuePolicy(30, "semantic")},
        ),
        ids=("unbounded", "block", "drop-oldest", "shedding"),
    )
    @pytest.mark.parametrize("workload", ("suspicious", "jitter", "complex"))
    def test_junk_column_changes_nothing(
        self, workload, control, execution, tiny_trace
    ):
        """Queued source rows are re-read by the shedding value model's
        lineage expressions: pruning must keep everything those need."""
        catalog_fn, deliver = WORKLOADS[workload]
        _, dag = catalog_fn()
        ps = PartitioningSet.of("srcIP")
        plan = DistributedOptimizer(
            dag, Placement(2, 2), ps, deliver=deliver
        ).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=1000, engine="columnar")
        runs = [
            sim.run_streaming(
                {"TCP": source}, HashSplitter(4, ps), 10.0,
                execution=execution, workers=2, **control,
            )
            for source in (tiny_trace.column_batch(), _with_junk(tiny_trace))
        ]
        plain, junk = runs
        assert junk.execution == execution
        assert_identical_simulation(plain, junk)
        assert junk.outputs == plain.outputs  # row for row, not as multisets
        assert junk.shed_counts == plain.shed_counts
        assert "junk" in junk.source_columns["TCP"][1]
        assert "junk" not in plain.source_columns["TCP"][1]
        if control.get("queue_policy") == QueuePolicy(30, "semantic"):
            assert sum(plain.rows_dropped(host) for host in range(2)) > 0

    def test_pruning_is_traced_and_summarized(self, complex_dag, tiny_trace):
        plan, splitter = _complex_plan(complex_dag)
        sim = ClusterSimulator(
            complex_dag, plan, stream_rate=1000, engine="columnar",
            record_events=True,
        )
        result = sim.run_streaming({"TCP": _with_junk(tiny_trace)}, splitter, 10.0)
        (event,) = [
            e for e in sim.metrics.events
            if e["event"] == "compile" and e["label"] == "source"
        ]
        assert event["node"] == "TCP" and event["fallback"] is False
        assert (event["kept"], event["dropped"]) == result.source_columns["TCP"]
        assert "junk" in event["dropped"]
        (line,) = [
            line for line in result.summary().splitlines()
            if line.startswith("source TCP:")
        ]
        assert "reads srcIP, destIP, time" in line
        assert "junk" in line.split("pruned")[1]


# -- RunOptions: the one declaration (and validation) of a run ------------------

_LEAVE = FaultPlan.of(Fault("leave", 1, 2, 3))

#: Every rejected combination, with the exception and the message
#: fragment that names it.
REJECTED_OPTIONS = {
    "flow-control-oneshot": (
        {"queue_policy": QueuePolicy(10)}, ValueError, "require streaming",
    ),
    "semantic-oneshot": (
        {"queue_policy": QueuePolicy(10, "semantic")},
        ValueError, "require streaming",
    ),
    "faults-oneshot": (
        {"faults": FaultPlan.of(Fault("skip", 0, 0, 0))},
        ValueError, "require streaming",
    ),
    "rebalance-oneshot": (
        {"rebalance": RebalancePolicy()}, ValueError, "require streaming",
    ),
    "membership-without-rebalance": (
        {"streaming": True, "faults": _LEAVE}, ValueError, "rebalance policy",
    ),
    "no-workers": ({"workers": 0}, ValueError, "workers must be >= 1"),
    "unknown-execution": (
        {"execution": "threads"}, ValueError, "execution must be one of",
    ),
    # the keyword this declaration retired is rejected like any other
    "unknown-keyword": ({"shedding": None}, TypeError, "'shedding'"),
}


class TestRunOptions:
    def test_whole_description_is_exported_where_it_is_defined(self):
        import repro.runtime
        from repro.cluster import simulator

        description = {
            "RunOptions", "QueuePolicy", "FaultPlan", "RebalancePolicy",
            "RebalanceLog",
        }
        assert description <= set(repro.runtime.__all__)
        facade = {"ENGINES", "ClusterSimulator", "SimulationResult", "Timeline"}
        assert set(simulator.__all__) - facade == description

    @pytest.mark.parametrize("case", sorted(REJECTED_OPTIONS))
    def test_rejected_combinations(self, case):
        options, error, fragment = REJECTED_OPTIONS[case]
        with pytest.raises(error, match=fragment):
            RunOptions(**options)

    @pytest.mark.parametrize(
        "case",
        ("membership-without-rebalance", "no-workers", "unknown-execution",
         "unknown-keyword"),
    )
    def test_every_layer_rejects_with_the_same_message(
        self, case, suspicious_dag, tiny_trace
    ):
        """The layers forward ``**options`` untouched, so the error is
        ``RunOptions``' own whichever of them was called."""
        bad, error, _ = REJECTED_OPTIONS[case]
        bad = {k: v for k, v in bad.items() if k != "streaming"}
        with pytest.raises(error) as expected:
            RunOptions(streaming=True, **bad)
        configuration = Configuration("partitioned", PartitioningSet.of("srcIP"))
        plan = DistributedOptimizer(
            suspicious_dag, Placement(2, 2), configuration.partitioning
        ).optimize()
        sim = ClusterSimulator(suspicious_dag, plan, stream_rate=1000)
        layers = (
            lambda: sim.run_streaming(
                {"TCP": tiny_trace.packets}, configuration.splitter(4), 10.0,
                **bad,
            ),
            lambda: run_configuration(
                suspicious_dag, tiny_trace, configuration, 2,
                streaming=True, **bad,
            ),
            lambda: overload_sweep(
                suspicious_dag, tiny_trace, configuration, 2, **bad
            ),
        )
        for layer in layers:
            with pytest.raises(error) as raised:
                layer()
            assert str(raised.value) == str(expected.value)
