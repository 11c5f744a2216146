"""The layered runtime: the backend, the unified session, the recorder.

The load-bearing contract: every plan node compiles to a kernel once, at
plan-compile time — the execution loop never compiles, and never sees
anything but a ``ColumnBatch`` between the source door and delivery —
and every counter flows through the MetricsRecorder while staying
identical to the facade-era numbers.
"""

import collections
import json
import sys

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, RoundRobinSplitter
from repro.cluster.costs import DEFAULT_COSTS
from repro.cluster.host import Host
from repro.cluster.network import NetworkMeter
from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import DistKind
from repro.partitioning import PartitioningSet
from repro.engine import batches_equal, columnar
from repro.engine.columnar import ColumnarOperator, ColumnBatch
from repro.engine.variants import build_variant_operator
from repro.plan import QueryDag
from repro.runtime import (
    Fault,
    FaultPlan,
    QueuePolicy,
    RebalancePolicy,
    RunOptions,
)
from repro.runtime import backend as backend_module
from repro.runtime.backend import EngineBackend, create_backend
from repro.runtime import metrics as metrics_module
from repro.runtime.metrics import ChargePlan, MetricsRecorder, NodeStats
from repro.runtime.session import ExecutionSession
from repro.workloads import (
    Configuration,
    approx_heavy_catalog,
    overload_sweep,
    run_configuration,
    sliding_flows_catalog,
)

from tests.parity import (
    SOURCES,
    WORKLOADS,
    assert_identical_simulation,
    assert_matches_centralized,
    assert_same_simulation,
    assert_streaming_matches_oneshot,
    deploy,
    last_value_dag,
    outer_join_plan,
    qset_dag,
    reverse_the_fold,
    tcp_source,
)


@pytest.fixture
def udaf_dag():
    return last_value_dag()


COMPLEX_DELIVER = ["flows", "heavy_flows", "flow_pairs"]


def _complex_plan(dag):
    return DistributedOptimizer(
        dag, Placement(3, 2), PartitioningSet.of("srcIP"), deliver=COMPLEX_DELIVER
    ).optimize()


def _complex(dag, **simulator):
    """``(simulator, splitter)`` of the plan :func:`_complex_plan` builds."""
    return deploy(
        dag, 3, PartitioningSet.of("srcIP"), COMPLEX_DELIVER, **simulator
    )


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
        """Every node kind of the fig13/fig14 complex plans, joins
        included, compiles to a kernel."""
        plan = _complex_plan(complex_dag)
        backend = EngineBackend(complex_dag)
        kinds = _nodes_by_kind(complex_dag, plan)
        assert "join" in kinds
        for label, node in kinds.items():
            operator = backend.compile_node(node)
            assert isinstance(operator, ColumnarOperator), label

    def test_unvectorizable_udaf_resolves_to_row_at_compile(
        self, udaf_dag, tiny_trace
    ):
        """A UDAF has no array form and still compiles to the aggregate
        kernels, which fold its own protocol per group — answering what
        the row reference answers."""
        plan = DistributedOptimizer(udaf_dag, Placement(2, 2), None).optimize()
        backend = EngineBackend(udaf_dag)
        ops = [node for node in plan.topological() if node.kind is DistKind.OP]
        assert {node.variant.value for node in ops} == {"sub", "super"}
        for node in ops:
            compiled = backend.compile_node(node)
            (kernel,) = compiled._kernels
            assert isinstance(kernel, columnar._UdafFold)
            assert type(compiled.empty()) is ColumnBatch
        central = DistributedOptimizer(udaf_dag, Placement(1, 1), None).optimize()
        (full,) = [n for n in central.topological() if n.kind is DistKind.OP]
        batch = tiny_trace.column_batch()
        output = backend.compile_node(full).process(batch)
        reference = build_variant_operator(udaf_dag.node("latest"))
        assert type(output) is ColumnBatch and len(output) > 0
        assert batches_equal(output.to_rows(), reference.process(batch.to_rows()))

    def test_create_backend_rejects_unknown_engine(self, complex_dag):
        with pytest.raises(ValueError):
            create_backend("simd", complex_dag)
        assert type(create_backend("columnar", complex_dag)) is EngineBackend

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("streaming", (False, True))
    def test_no_per_batch_fallback_path_executes(
        self, source, streaming, complex_dag, tiny_trace, monkeypatch
    ):
        """After session construction, execution never consults the
        kernel builders again: every node's kernel is built at
        plan-compile time."""
        sim, splitter = _complex(complex_dag)

        def forbidden(*args, **kwargs):
            raise AssertionError("operator compilation during execution")

        monkeypatch.setattr(backend_module, "build_variant_kernel", forbidden)
        monkeypatch.setattr(backend_module, "build_columnar_nullpad", forbidden)
        monkeypatch.setattr(EngineBackend, "_compile", forbidden)
        run = sim.run_streaming if streaming else sim.run
        result = run(tcp_source(tiny_trace.packets, source), splitter, 10.0)
        assert set(result.outputs) == {"flows", "heavy_flows", "flow_pairs"}
        assert sum(result.node_output_counts.values()) > 0

    def test_session_wrappers_share_one_driver(self, complex_dag, tiny_trace):
        """run()/run_streaming() are wrappers over ExecutionSession.execute;
        driving the session directly reproduces them exactly."""
        sim, splitter = _complex(complex_dag)
        facade = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
        direct = sim.session.execute({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert_same_simulation(facade, direct)


class TestNodeStats:
    @pytest.fixture(scope="class")
    def run(self, tiny_trace):
        from repro.workloads import suspicious_flows_catalog

        _, dag = suspicious_flows_catalog()
        ps = PartitioningSet.of("srcIP")
        plan = DistributedOptimizer(dag, Placement(3, 2), ps).optimize()
        sim, splitter = deploy(dag, 3, ps)
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
        recorder.node_stats["n"] = NodeStats(rows_in=5, rows_out=3, steps=1)
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
        """The charge plan resolves every node's processing category when
        it is built: an OP node without an analyzed kind fails there, not
        mid-run."""
        plan = _complex_plan(complex_dag)
        recorder = self._recorder(hosts=3)
        order = plan.topological()
        widths = {node.node_id: 1.0 for node in order}
        with pytest.raises(ValueError, match="unexpected node kind None"):
            ChargePlan(recorder, order, {}, widths)

    def test_event_trace_is_json_lines(self, suspicious_dag, tiny_trace, tmp_path):
        sim, splitter = deploy(suspicious_dag, 2, None, record_events=True)
        sim.run_streaming({"TCP": tiny_trace.packets}, splitter, 10.0)
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
        # One compile event per plan node, plus one per pruned source.
        compiled = [
            e["node"] for e in events
            if e["event"] == "compile" and e["label"] != "source"
        ]
        assert sorted(compiled) == sorted(
            node.node_id for node in sim.session._plan.topological()
            if node.kind is not DistKind.SOURCE
        )
        # Every node step is attributed to an epoch (or the flush phase).
        node_events = [e for e in events if e["event"] == "node"]
        assert node_events and all("epoch" in e for e in node_events)
        assert any(e.get("epoch") == "flush" for e in events)

    def test_events_off_by_default(self, suspicious_dag, tiny_trace):
        sim, splitter = deploy(suspicious_dag, 2, None)
        sim.run_streaming({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert sim.metrics.events == []


class TestFallbackObservability:
    """A UDAF plan compiles like any other: nothing falls back, and its
    compile records are traced and replayed into every run."""

    def _run(self, dag, tiny_trace, record_events=False):
        sim, splitter = deploy(dag, 2, None, record_events=record_events)
        return sim, sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)

    def test_udaf_fallback_is_recorded(self, udaf_dag, tiny_trace):
        """No fallback to record: the UDAF plan runs on its kernels and,
        partitioned compatibly, meets the centralized oracle (LAST_VALUE
        depends on arrival order, which a round-robin split does not
        keep within a group)."""
        sim, splitter = deploy(udaf_dag, 2, PartitioningSet.of("srcIP"))
        result = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert result.fallback_nodes == {}
        assert set(result.node_variants.values()) == {"full"}
        assert_matches_centralized(udaf_dag, tiny_trace.packets, result)

    def test_sweep_helper_rejects_a_fallback(self, udaf_dag, monkeypatch):
        """The UDAF workload passes the streaming sweep (seed 11 hashes
        on srcIP over three hosts), and a fold that walks each group
        backwards fails the sweep's oracle line."""
        monkeypatch.setitem(WORKLOADS, "udaf", (lambda: (None, udaf_dag), None))
        assert_streaming_matches_oneshot("udaf", 11, "columnar")
        reverse_the_fold(monkeypatch)
        with pytest.raises(AssertionError, match="latest: distributed output"):
            assert_streaming_matches_oneshot("udaf", 11, "columnar")

    def test_fallback_appears_in_event_trace(self, udaf_dag, tiny_trace):
        """Each UDAF plan node's compile event names its operator and
        the optimizer's variant; none is flagged as a fallback."""
        sim, result = self._run(udaf_dag, tiny_trace, record_events=True)
        compile_events = [
            e for e in sim.metrics.events
            if e["event"] == "compile" and e["label"] != "source"
        ]
        assert {
            e["node"]: e["variant"] for e in compile_events if "variant" in e
        } == result.node_variants
        for event in compile_events:
            assert "fallback" not in event
            assert event["label"] == "merge" or event["label"].startswith(
                "latest/"
            )

    def test_fallbacks_survive_recorder_reset_across_runs(
        self, udaf_dag, tiny_trace
    ):
        """Each run replays the compile records into the freshly reset
        recorder, so the second run traces the same compile events."""
        sim, _ = self._run(udaf_dag, tiny_trace, record_events=True)
        compiled = [e for e in sim.metrics.events if e["event"] == "compile"]
        assert compiled
        sim.run({"TCP": tiny_trace.packets}, RoundRobinSplitter(4), 10.0)
        assert [
            e for e in sim.metrics.events if e["event"] == "compile"
        ] == compiled

    def test_fully_vectorized_plan_has_no_fallbacks(
        self, complex_dag, tiny_trace
    ):
        _, result = self._run(complex_dag, tiny_trace)
        assert result.fallback_nodes == {}


class TestOneBatchType:
    """Between the source door and delivery every batch is a
    ``ColumnBatch`` — whatever operator a node compiled to."""

    @pytest.fixture
    def watched(self, monkeypatch):
        """Type-check every streaming node's inputs and output and every
        ``StepOutcome.returns`` value of the runs that follow.  Forked
        workers inherit the patch; a failure inside one surfaces as the
        driver's RuntimeError.  Yields the in-process tallies."""
        build = EngineBackend.streaming_node
        create = ExecutionSession._create_executor
        seen = {"steps": 0, "returns": 0}

        class Watched:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def step(self, inputs, watermarks, flush):
                output, watermark = self._inner.step(inputs, watermarks, flush)
                for batch in (*inputs, output):
                    assert type(batch) is ColumnBatch, type(batch)
                seen["steps"] += 1
                return output, watermark

        def checked_create(session, *args):
            executor = create(session, *args)
            run_step = executor.run_step

            def checked_step(flush, sources):
                outcome = run_step(flush, sources)
                for batch in outcome.returns.values():
                    assert type(batch) is ColumnBatch, type(batch)
                seen["returns"] += len(outcome.returns)
                return outcome

            executor.run_step = checked_step
            return executor

        monkeypatch.setattr(
            EngineBackend, "streaming_node",
            lambda backend, node: Watched(build(backend, node)),
        )
        monkeypatch.setattr(ExecutionSession, "_create_executor", checked_create)
        return seen

    @pytest.mark.parametrize("shape", ("udaf", "sketch", "sliding", "outer-join"))
    def test_every_node_boundary_carries_column_batches(
        self, shape, watched, udaf_dag, catalog_factory, tiny_trace
    ):
        if shape == "outer-join":
            dag, plan = outer_join_plan(catalog_factory())
        else:
            dag = {
                "udaf": lambda: udaf_dag,
                "sketch": lambda: approx_heavy_catalog()[1],
                "sliding": lambda: sliding_flows_catalog(3, 1)[1],
            }[shape]()
            plan = DistributedOptimizer(dag, Placement(2, 2), None).optimize()
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        splitter = RoundRobinSplitter(plan.num_partitions)
        compiled = {
            node.node_id: sim.session.backend.compile_node(node)
            for node in plan.topological()
            if node.kind is not DistKind.SOURCE
        }
        # The sketch pair, window reassembly and the UDAF's fold are all
        # kernels: no node adapts a row operator.
        for node_id, operator in compiled.items():
            assert isinstance(operator, ColumnarOperator), node_id
        for streaming in (False, True):
            for execution in ("inprocess", "parallel"):
                result = sim.run(
                    {"TCP": tiny_trace.packets}, splitter, 10.0,
                    streaming=streaming, execution=execution, workers=2,
                )
                assert result.execution == execution
                (rows,) = result.outputs.values()
                assert rows
                for row in rows:
                    for cell in row.values():
                        assert not isinstance(cell, np.generic), type(cell)
        assert watched["steps"] > 0 and watched["returns"] > 0

    def test_per_row_split_meets_the_oracle(
        self, watched, to_rows_calls, tiny_trace
    ):
        """A float hash key (a product), which once sent every piece
        through a per-row split, is hashed on the columns: the run builds
        no row from a batch, and one-shot and streaming runs still answer
        what the centralized run answers."""
        catalog_fn, deliver = WORKLOADS["jitter"]
        dag = catalog_fn()[1]
        sim, splitter = deploy(dag, 3, PartitioningSet.of("srcIP * 1.5"), deliver)
        packets = tiny_trace.packets  # built through to_rows on first read
        for streaming in (False, True):
            to_rows_calls.clear()
            result = sim.run({"TCP": packets}, splitter, 10.0, streaming=streaming)
            assert not to_rows_calls, "a batch was converted to rows"
            assert result.outputs.row_count() > 0
            assert_matches_centralized(dag, tiny_trace.packets, result)
        assert watched["steps"] > 0


@pytest.fixture
def to_rows_calls(monkeypatch):
    """Record every ``ColumnBatch.to_rows`` call made in the driver
    process from here on: the list of batches it was called on."""
    calls = []
    to_rows = ColumnBatch.to_rows

    def counted(batch):
        calls.append(batch)
        return to_rows(batch)

    monkeypatch.setattr(ColumnBatch, "to_rows", counted)
    return calls


def _delivery_case(case, catalog_factory):
    """``(simulator, splitter, run options)`` of one deferral case."""
    if case == "outer-join":
        dag, plan = outer_join_plan(catalog_factory())
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        return sim, RoundRobinSplitter(plan.num_partitions), {}
    if case == "mixed-dtype":
        catalog = catalog_factory()
        catalog.define_query(
            "last",
            "SELECT tb, srcIP, ODD_AS_FLOAT(time) as t FROM TCP "
            "GROUP BY time as tb, srcIP",
        )
        sim, splitter = deploy(QueryDag.from_catalog(catalog), 2, None)
        return sim, splitter, {}
    catalog_fn, deliver = WORKLOADS["jitter"]
    sim, splitter = deploy(
        catalog_fn()[1], 2, PartitioningSet.of("srcIP"), deliver
    )
    if case == "jitter-parallel":
        return sim, splitter, {"execution": "parallel", "workers": 2}
    return sim, splitter, {}


def _eager_rows(monkeypatch):
    """Per query, the rows an eager delivery would have built: each
    step's returned batch converted the moment the step returns it."""
    eager = {}
    create = ExecutionSession._create_executor

    def converting_create(session, *args):
        executor = create(session, *args)
        run_step = executor.run_step

        def converting_step(flush, sources):
            outcome = run_step(flush, sources)
            for name, node_id in session._plan.delivery.items():
                rows = ColumnBatch.to_rows(outcome.returns[node_id])
                eager.setdefault(name, []).extend(rows)
            return outcome

        executor.run_step = converting_step
        return executor

    monkeypatch.setattr(ExecutionSession, "_create_executor", converting_create)
    return eager


def _assert_deferred_equals_eager(result, eager):
    assert set(result.outputs) == set(eager)
    for name, rows in eager.items():
        deferred = result.outputs[name]
        assert type(deferred) is list
        # repr: 2 vs 2.0 and None vs nan differ, list for list, in order
        assert repr(deferred) == repr(rows), name
        assert result.outputs.row_count(name) == len(rows)


class TestDeferredDelivery:
    """The run loop keeps each step's delivered ``ColumnBatch``; rows are
    built on every read of ``result.outputs[query]``, kept only until the
    next read unless the caller changed them, and equal what a conversion
    at every step would have built."""

    def test_execute_builds_no_rows(self, jitter_dag, tiny_trace, to_rows_calls):
        sim, splitter = deploy(
            jitter_dag, 2, PartitioningSet.of("srcIP"), WORKLOADS["jitter"][1]
        )
        result = sim.run_streaming({"TCP": tiny_trace.column_batch()}, splitter, 10.0)
        assert result.fallback_nodes == {}
        # no adapted row operator either: it would have called to_rows
        assert to_rows_calls == []
        previous = []  # the batches of the list read last
        for name, batches in result.outputs.batches.items():
            assert len(batches) > 1 and all(len(batch) for batch in batches)
            rows = result.outputs[name]
            # The read checks the list read last against its batches, then
            # calls to_rows once per step batch, in order.
            assert to_rows_calls == previous + batches
            to_rows_calls.clear()
            again = result.outputs[name]  # drops ``rows`` unchanged, builds anew
            assert again == rows and again is not rows
            assert to_rows_calls == batches * 2
            # Only this frame (and getrefcount's argument) holds the first
            # list and its rows: the result retained none of them.
            list_refs, row_refs = sys.getrefcount(rows), sys.getrefcount(rows[0])
            assert list_refs == row_refs == 2
            assert len(rows) == result.outputs.row_count(name)
            to_rows_calls.clear()
            previous = batches
        assert result.outputs.row_count() == sum(
            len(result.outputs[name]) for name in result.outputs
        )

    def test_an_edit_before_the_next_read_is_kept(self, jitter_dag, tiny_trace):
        sim, splitter = deploy(
            jitter_dag, 2, PartitioningSet.of("srcIP"), WORKLOADS["jitter"][1]
        )
        result = sim.run_streaming({"TCP": tiny_trace.column_batch()}, splitter, 10.0)
        outputs = result.outputs
        first, second, *_ = sorted(outputs)
        edited = outputs[first]
        row = edited[0]
        column = sorted(row)[-1]
        row[column] += 1
        cleared = outputs[second]  # drops nothing: ``edited`` changed
        cleared.clear()
        assert outputs[first] is edited and edited[0][column] == row[column]
        assert outputs[second] is cleared == []
        assert outputs.row_count(second) > 0  # the batches are untouched

    @pytest.mark.parametrize(
        "case", ("outer-join", "mixed-dtype", "jitter", "jitter-parallel")
    )
    def test_deferred_rows_equal_eager_rows(
        self, case, catalog_factory, tiny_trace, monkeypatch
    ):
        sim, splitter, options = _delivery_case(case, catalog_factory)
        eager = _eager_rows(monkeypatch)
        result = sim.run_streaming(
            {"TCP": tiny_trace.column_batch()}, splitter, 10.0, **options
        )
        assert result.execution == options.get("execution", "inprocess")
        (batches, *_) = result.outputs.batches.values()
        dtypes = {
            str(column.dtype)
            for batch in batches
            for column in batch.columns.values()
        }
        if case == "outer-join":
            assert "object" in dtypes
        if case == "mixed-dtype":
            assert {"int64", "float64"} <= dtypes
        # read only now: after the run, its executor (and any worker
        # the batches were pickled from) closed
        _assert_deferred_equals_eager(result, eager)

    def test_an_operator_reusing_its_output_buffer_is_caught(
        self, catalog_factory, tiny_trace, monkeypatch
    ):
        """Known-bad companion: a delivery operator that hands out a
        buffer and overwrites it on its next step.  Eager conversion
        never saw the overwrite; deferred rows do, and the check fails."""
        sim, splitter, _ = _delivery_case("jitter", catalog_factory)
        delivery = set(sim.session._plan.delivery.values())
        build = EngineBackend.streaming_node

        class Reusing:
            def __init__(self, inner):
                self._inner = inner
                self._last = None

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def step(self, inputs, watermarks, flush):
                if self._last is not None:
                    for column in self._last.columns.values():
                        column += 1
                output, watermark = self._inner.step(inputs, watermarks, flush)
                output = ColumnBatch(
                    {name: np.array(column) for name, column in output.columns.items()},
                    len(output),
                )
                self._last = output
                return output, watermark

        def building(backend, node):
            inner = build(backend, node)
            return Reusing(inner) if node.node_id in delivery else inner

        monkeypatch.setattr(EngineBackend, "streaming_node", building)
        eager = _eager_rows(monkeypatch)
        result = sim.run_streaming({"TCP": tiny_trace.column_batch()}, splitter, 10.0)
        with pytest.raises(AssertionError):
            _assert_deferred_equals_eager(result, eager)


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
        sim, splitter = _complex(complex_dag)
        result = sim.run_streaming(
            {"TCP": tiny_trace.column_batch()}, splitter, 10.0
        )
        kept, dropped = result.source_columns["TCP"]
        assert set(kept) == {"time", "srcIP", "destIP"}
        assert sorted(kept + dropped) == sorted(tiny_trace.columns)

    def test_suspicious_catalog_reads_seven_of_nine(
        self, suspicious_dag, tiny_trace
    ):
        sim, splitter = deploy(suspicious_dag, 2, None)
        result = sim.run({"TCP": tiny_trace.column_batch()}, splitter, 10.0)
        kept, dropped = result.source_columns["TCP"]
        assert len(kept) == 7
        assert sorted(dropped) == ["protocol", "timestamp"]

    def test_splitter_and_epoch_columns_ride_along(self, catalog, tiny_trace):
        """Neither ``time`` nor ``destPort`` is read by the query; slicing
        and hashing still need them."""
        catalog.define_query("big", "SELECT srcIP, len FROM TCP WHERE len > 100")
        dag = QueryDag.from_catalog(catalog)
        sim, splitter = deploy(dag, 2, PartitioningSet.of("destPort"))
        result = sim.run_streaming(
            {"TCP": tiny_trace.column_batch()}, splitter, 10.0
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
        sim, splitter = deploy(dag, 2, None)
        result = sim.run({"TCP": tiny_trace.column_batch()}, splitter, 10.0)
        kept, _ = result.source_columns["TCP"]
        assert set(kept) == {"time", "srcIP", "destIP", "len", "flags"}
        assert_matches_centralized(dag, tiny_trace.packets, result)

    def test_row_batches_are_pruned_once_columnar(self, complex_dag, tiny_trace):
        sim, splitter = _complex(complex_dag)
        result = sim.run({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert set(result.source_columns["TCP"][0]) == {"time", "srcIP", "destIP"}

    @pytest.mark.parametrize("execution", ("inprocess", "parallel"))
    @pytest.mark.parametrize(
        "control",
        (
            {},
            {"queue_policy": QueuePolicy(30, "block")},
            {"queue_policy": QueuePolicy(30, "drop-oldest")},
            {
                "queue_policy": QueuePolicy(30, "drop-newest"),
                "faults": FaultPlan.of(Fault("skip", 1, 1, 2)),
            },
        ),
        ids=("unbounded", "block", "drop-oldest", "shedding"),
    )
    @pytest.mark.parametrize("workload", ("suspicious", "jitter", "complex"))
    def test_junk_column_changes_nothing(
        self, workload, control, execution, tiny_trace
    ):
        """Source rows are pruned before they queue: a column nothing
        reads changes no queueing, dropping or fault decision."""
        catalog_fn, deliver = WORKLOADS[workload]
        _, dag = catalog_fn()
        sim, splitter = deploy(dag, 2, PartitioningSet.of("srcIP"), deliver)
        runs = [
            sim.run_streaming(
                {"TCP": source}, splitter, 10.0,
                execution=execution, workers=2, **control,
            )
            for source in (tiny_trace.column_batch(), _with_junk(tiny_trace))
        ]
        plain, junk = runs
        assert junk.execution == execution
        assert_identical_simulation(plain, junk)
        assert junk.outputs == plain.outputs  # row for row, not as multisets
        assert "junk" in junk.source_columns["TCP"][1]
        assert "junk" not in plain.source_columns["TCP"][1]
        if "faults" in control:
            assert sum(plain.rows_dropped(host) for host in range(2)) > 0

    def test_pruning_is_traced_and_summarized(self, complex_dag, tiny_trace):
        sim, splitter = _complex(complex_dag, record_events=True)
        result = sim.run_streaming({"TCP": _with_junk(tiny_trace)}, splitter, 10.0)
        (event,) = [
            e for e in sim.metrics.events
            if e["event"] == "compile" and e["label"] == "source"
        ]
        assert event["node"] == "TCP"
        assert (event["kept"], event["dropped"]) == result.source_columns["TCP"]
        assert "junk" in event["dropped"]
        (line,) = [
            line for line in result.summary().splitlines()
            if line.startswith("source TCP:")
        ]
        assert "reads srcIP, destIP, time" in line
        assert "junk" in line.split("pruned")[1]

    def test_summary_counts_deliveries_without_building_rows(
        self, complex_dag, tiny_trace, to_rows_calls
    ):
        sim, splitter = _complex(complex_dag)
        result = sim.run_streaming({"TCP": tiny_trace.column_batch()}, splitter, 10.0)
        summary = result.summary().splitlines()
        assert to_rows_calls == []
        delivered = [line for line in summary if line.startswith("delivered ")]
        assert delivered == [
            f"delivered {name}: {len(result.outputs[name])} rows"
            for name in sorted(COMPLEX_DELIVER)
        ]
        assert all(not line.endswith(" 0 rows") for line in delivered)


# -- RunOptions: the one declaration (and validation) of a run ------------------

_LEAVE = FaultPlan.of(Fault("leave", 1, 2, 3))

#: Every rejected combination, with the exception and the message
#: fragment that names it.
REJECTED_OPTIONS = {
    "flow-control-oneshot": (
        {"queue_policy": QueuePolicy(10)}, ValueError, "require streaming",
    ),
    # A lossy queue one-shot; the id is the retired semantic mode's.
    "semantic-oneshot": (
        {"queue_policy": QueuePolicy(10, "drop-newest")},
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
        facade = {"ClusterSimulator", "SimulationResult", "Timeline"}
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
        sim, splitter = deploy(suspicious_dag, 2, configuration.partitioning)
        layers = (
            lambda: sim.run_streaming(
                {"TCP": tiny_trace.packets}, splitter, 10.0, **bad
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


def _charge_call_by_call(recorder, order, kinds, widths, lens, hosts, walls):
    """The reference replay: one recorder call per charge, node by node in
    plan order — each child edge (a local ingest, or a transfer charged to
    both ends), then the node's processing; merge and union charge their
    input rows alone."""
    costs = recorder.costs
    for node in order:
        node_id = node.node_id
        host = hosts[node_id]
        if node.kind is DistKind.SOURCE:
            recorder.charge(host, lens[node_id] * costs.receive_local, "ingest")
            continue
        rows_in = 0
        for child in node.inputs:
            rows_in += lens[child]
            if hosts[child] != host:
                recorder.record_transfer(hosts[child], host, lens[child], widths[child])
            else:
                recorder.charge(host, lens[child] * costs.receive_local, "ingest")
        category, per_in, per_out = metrics_module._processing_cost(
            node, kinds.get(node_id), costs
        )
        if category in ("merge", "union"):
            units = rows_in * per_in
        else:
            units = rows_in * per_in + lens[node_id] * per_out
        recorder.charge(host, units, category)
        stats = recorder.node_stats.setdefault(node_id, NodeStats())
        stats.rows_in += rows_in
        stats.rows_out += lens[node_id]
        stats.bytes_out += lens[node_id] * widths[node_id]
        stats.wall_seconds += walls[node_id]
        stats.steps += 1
        if recorder.record_events:
            recorder.node_event(
                node_id, rows_in, lens[node_id], walls[node_id], host, None
            )


def _accounting(recorder):
    """Every accumulator, with dictionary key order, for ``==``."""
    network = recorder.network
    return (
        [
            (host.cpu_units, list(host.by_category.items()), list(host.epoch_cpu))
            for host in recorder.hosts
        ],
        list(network.tuples_received.items()),
        list(network.bytes_received.items()),
        list(network.link_tuples.items()),
        [list(bucket.items()) for bucket in network.epoch_link_tuples],
        [list(bucket.items()) for bucket in network.epoch_link_bytes],
        list(recorder.node_stats.items()),
        recorder.events,
    )


class TestChargePlan:
    @pytest.mark.parametrize("shape", ("complex", "qset"))
    @pytest.mark.parametrize("streaming", (False, True))
    def test_replay_is_bit_equal_to_charging_call_by_call(
        self, shape, streaming, complex_dag
    ):
        """Random row counts and host tables (a migration re-homes nodes
        between steps): the plan's batched folds leave every float, every
        counter, every key order and every event exactly where charging
        one call at a time does."""
        if shape == "complex":
            dag, plan = complex_dag, _complex_plan(complex_dag)
        else:
            dag = qset_dag(8)
            plan = DistributedOptimizer(
                dag, Placement(3, 2), PartitioningSet.of("srcIP & 0xffff0000")
            ).optimize()
        order = plan.topological()
        kinds = {
            node.node_id: dag.node(node.query).kind
            for node in order
            if node.kind is DistKind.OP
        }
        rng = np.random.default_rng(7)
        widths = {node.node_id: float(rng.integers(4, 60)) + 0.25 for node in order}
        batched = MetricsRecorder(
            [Host(i, 1000.0) for i in range(3)], NetworkMeter(), DEFAULT_COSTS,
            record_events=True,
        )
        reference = MetricsRecorder(
            [Host(i, 1000.0) for i in range(3)], NetworkMeter(), DEFAULT_COSTS,
            record_events=True,
        )
        charges = ChargePlan(batched, order, kinds, widths)
        hosts = {node.node_id: node.host for node in order}
        totals = collections.Counter()
        for step in range(6):
            if step == 3:
                hosts = {
                    node_id: int(rng.integers(0, 3)) for node_id in hosts
                }
            lens = {
                node.node_id: int(rng.integers(0, 3) and rng.integers(0, 5000))
                for node in order
            }
            walls = {node_id: float(rng.random()) for node_id in lens}
            totals.update(lens)
            for recorder in (batched, reference):
                if streaming:
                    recorder.begin_epoch(step)
                recorder.charge(0, 0.1, "queue")  # charges around the replay
            peak = charges.replay(lens, hosts, walls, {})
            assert peak == max(lens.values())
            _charge_call_by_call(
                reference, order, kinds, widths, lens, hosts, walls
            )
        assert charges.finish() == dict(totals)
        assert _accounting(batched) == _accounting(reference)
