"""Multiprocess execution: parity, shared-memory transport, fallback.

The contract under test: ``execution="parallel"`` is *observationally
identical* to in-process execution — outputs, CPU and network
accounting, flow stats, peak-batch accounting, and the timeline are
exactly equal (``==``, not approximately), because the driver replays
every charge from worker-reported counters in plan order.  Only pids in
the event trace may differ.
"""

import os
import pickle
import random
import warnings

import pytest

from tests.parity import (
    SOURCES,
    assert_identical_simulation,
    assert_same_outputs,
    last_value_dag,
    random_case,
    random_packets,
    splitter_for,
    tcp_source,
)

from repro.cluster import ClusterSimulator, QueuePolicy
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import batches_equal
from repro.engine.columnar import ColumnBatch
from repro.runtime import parallel as parallel_mod
from repro.runtime.backend import CompiledOperator, EngineBackend
from repro.runtime.flowcontrol import Fault, FaultPlan
from repro.runtime.parallel import ParallelExecutor, ParallelUnavailable

import numpy as np


def _shm_entries():
    """Names of live shared-memory segments (Linux: files in /dev/shm)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux fallback: skip the leak check
        return set()


def _case(seed, workload):
    """Derive one randomized case: trace, plan, splitter, cluster size."""
    dag, deliver, packets, hosts, ps = random_case(workload, seed)
    placement = Placement(hosts, 2)
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    splitter = splitter_for(placement.num_partitions, ps)
    return dag, plan, splitter, packets, hosts


def _run(dag, plan, splitter, packets, execution, record_events=False,
         **options):
    sim = ClusterSimulator(
        dag, plan, stream_rate=1000, record_events=record_events
    )
    result = sim.run_streaming(
        {"TCP": packets}, splitter, 10.0, execution=execution, **options
    )
    return sim, result


def _fault_plan(seed, hosts):
    """A seeded mix of skip / delay / duplicate faults across the hosts."""
    rng = random.Random(seed * 31 + 5)
    faults = []
    for kind in ("skip", "delay", "duplicate"):
        host = rng.randrange(hosts)
        first = rng.randrange(4)
        faults.append(
            Fault(kind, host, first, first + rng.randrange(3), delay=2)
        )
    return FaultPlan(tuple(faults))


class TestRandomizedParallelParity:
    """The tentpole acceptance: 50 seeds, exact equality, queues + faults."""

    @pytest.mark.parametrize("seed", range(50))
    def test_parallel_matches_inprocess(self, seed):
        workload = ("suspicious", "jitter", "complex")[seed % 3]
        queue_policy = (
            QueuePolicy(25, "drop-newest") if seed % 5 == 0 else None
        )
        dag, plan, splitter, packets, hosts = _case(seed, workload)
        faults = _fault_plan(seed, hosts) if seed % 7 == 0 else None
        before = _shm_entries()
        _, reference = _run(
            dag, plan, splitter, packets, "inprocess",
            queue_policy=queue_policy, faults=faults,
        )
        _, result = _run(
            dag, plan, splitter, packets, "parallel",
            queue_policy=queue_policy, faults=faults,
        )
        assert_identical_simulation(reference, result)
        # Multi-host plans really fork; single-host plans fall back.
        assert result.execution == ("parallel" if hosts > 1 else "inprocess")
        assert _shm_entries() == before

    @pytest.mark.parametrize("source", SOURCES)
    def test_row_engine_and_oneshot(self, source):
        """One-shot runs fork too, whichever form the trace arrives in."""
        dag, plan, splitter, packets, hosts = _case(9, "complex")
        assert hosts > 1
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        trace = tcp_source(packets, source)
        reference = sim.run(trace, splitter, 10.0)
        result = sim.run(trace, splitter, 10.0, execution="parallel")
        assert result.execution == "parallel"
        assert_same_outputs(reference, result)
        for ref, got in zip(reference.hosts, result.hosts):
            assert ref.cpu_units == got.cpu_units

    def test_forced_shared_memory_transport(self, monkeypatch):
        # Every columnar batch — however small — travels by shared memory.
        monkeypatch.setattr(parallel_mod, "SHARED_MIN_BYTES", 0)
        dag, plan, splitter, packets, hosts = _case(9, "complex")
        before = _shm_entries()
        _, reference = _run(dag, plan, splitter, packets, "inprocess")
        _, result = _run(dag, plan, splitter, packets, "parallel")
        assert result.execution == "parallel"
        assert_identical_simulation(reference, result)
        assert _shm_entries() == before


class TestEventAttribution:
    """Satellite: every trace event carries host + pid."""

    def test_parallel_trace_has_worker_pids(self):
        dag, plan, splitter, packets, hosts = _case(9, "complex")
        sim, result = _run(
            dag, plan, splitter, packets, "parallel", record_events=True
        )
        assert result.execution == "parallel"
        events = sim.metrics.events
        assert all("host" in event and "pid" in event for event in events)
        driver = os.getpid()
        node_pids = {
            event["pid"] for event in events if event["event"] == "node"
        }
        assert node_pids and driver not in node_pids
        # One worker process per host, plus the driver under the None key.
        host_pids = sim.metrics.host_pids()
        assert host_pids[None] == [driver]
        worker_pids = {
            pid
            for host, pids in host_pids.items()
            if host is not None
            for pid in pids
            if pid != driver
        }
        assert len(worker_pids) == min(hosts, os.cpu_count() or hosts) or \
            len(worker_pids) <= hosts
        (mode_event,) = [e for e in events if e["event"] == "execution"]
        assert mode_event["mode"] == "parallel"
        assert mode_event["workers"] == hosts

    def test_inprocess_trace_is_driver_only(self):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        sim, _ = _run(
            dag, plan, splitter, packets, "inprocess", record_events=True
        )
        pids = {event["pid"] for event in sim.metrics.events}
        assert pids == {os.getpid()}


class TestGracefulFallback:
    """Satellite: impossible parallelism degrades, recorded, never crashes."""

    def test_workers_one_falls_back(self):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        sim, result = _run(
            dag, plan, splitter, packets, "parallel", workers=1,
            record_events=True,
        )
        assert result.execution == "inprocess"
        (mode_event,) = [
            e for e in sim.metrics.events if e["event"] == "execution"
        ]
        assert mode_event["mode"] == "inprocess"
        assert "workers" in mode_event["reason"]

    def test_single_host_plan_falls_back(self):
        seed = next(s for s in range(50) if _case(s, "suspicious")[4] == 1)
        dag, plan, splitter, packets, _ = _case(seed, "suspicious")
        sim, result = _run(
            dag, plan, splitter, packets, "parallel", record_events=True
        )
        assert result.execution == "inprocess"
        (mode_event,) = [
            e for e in sim.metrics.events if e["event"] == "execution"
        ]
        assert "single host" in mode_event["reason"]

    def test_no_start_method_falls_back(self, monkeypatch):
        monkeypatch.setattr(
            parallel_mod.multiprocessing, "get_all_start_methods", lambda: []
        )
        dag, plan, splitter, packets, hosts = _case(9, "complex")
        assert hosts > 1
        _, reference = _run(dag, plan, splitter, packets, "inprocess")
        sim, result = _run(
            dag, plan, splitter, packets, "parallel", record_events=True
        )
        assert result.execution == "inprocess"
        (mode_event,) = [
            e for e in sim.metrics.events if e["event"] == "execution"
        ]
        assert "start method" in mode_event["reason"]
        assert_identical_simulation(reference, result)

    def test_invalid_execution_rejected(self):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        with pytest.raises(ValueError, match="execution"):
            sim.run({"TCP": packets}, splitter, 10.0, execution="threads")
        with pytest.raises(ValueError, match="workers"):
            sim.run({"TCP": packets}, splitter, 10.0, workers=0)

    def test_unavailable_error_is_typed(self):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        backend = EngineBackend(dag)
        with pytest.raises(ParallelUnavailable, match="at least 2 workers"):
            ParallelExecutor(
                plan, backend, plan.topological(), "time",
                set(plan.delivery.values()), workers=1,
            )


class TestSharedColumnBatch:
    """Satellite: to_shared/from_shared round-trips and segment hygiene."""

    def _roundtrip(self, batch):
        before = _shm_entries()
        handle = batch.to_shared()
        try:
            # The descriptor is what crosses the pipe: pickle it.
            rebuilt = ColumnBatch.from_shared(
                pickle.loads(pickle.dumps(handle))
            )
        finally:
            handle.dispose()
        assert _shm_entries() == before
        return rebuilt

    def test_numeric_round_trip(self):
        batch = ColumnBatch(
            {
                "a": np.arange(100, dtype=np.int64),
                "b": np.linspace(0.0, 1.0, 100),
            },
            100,
        )
        rebuilt = self._roundtrip(batch)
        assert rebuilt.length == 100
        assert np.array_equal(rebuilt.columns["a"], batch.columns["a"])
        assert np.array_equal(rebuilt.columns["b"], batch.columns["b"])

    def test_composite_aggregate_state_columns(self):
        # Composite columns (tuples of arrays — partial aggregate states)
        # keep their component structure through the segment.
        batch = ColumnBatch(
            {
                "g": np.array([1, 2, 3]),
                "state": (
                    np.array([1.5, 2.5, 3.5]),
                    np.array([10, 20, 30], dtype=np.int64),
                ),
            },
            3,
        )
        rebuilt = self._roundtrip(batch)
        assert isinstance(rebuilt.columns["state"], tuple)
        for got, ref in zip(rebuilt.columns["state"], batch.columns["state"]):
            assert np.array_equal(got, ref)

    def test_empty_batch(self):
        batch = ColumnBatch({}, 0)
        handle = batch.to_shared()
        assert handle.segment_name is None
        rebuilt = ColumnBatch.from_shared(pickle.loads(pickle.dumps(handle)))
        handle.dispose()
        assert rebuilt.length == 0 and rebuilt.columns == {}

    def test_empty_columns_need_no_segment(self):
        batch = ColumnBatch(
            {"a": np.array([], dtype=np.int64), "b": np.array([], dtype=float)},
            0,
        )
        handle = batch.to_shared()
        assert handle.segment_name is None  # zero bytes: no segment at all
        rebuilt = ColumnBatch.from_shared(handle)
        handle.dispose()
        assert rebuilt.columns["a"].dtype == np.int64
        assert len(rebuilt.columns["a"]) == 0

    def test_object_dtype_rides_by_pickle(self):
        batch = ColumnBatch(
            {
                "n": np.array([1, 2, 3]),
                "tag": np.array(["alpha", None, ("t", 1)], dtype=object),
            },
            3,
        )
        rebuilt = self._roundtrip(batch)
        assert rebuilt.columns["tag"].tolist() == ["alpha", None, ("t", 1)]
        assert np.array_equal(rebuilt.columns["n"], batch.columns["n"])

    def test_rebuilt_batch_outlives_segment(self):
        # from_shared copies: the batch must stay valid after dispose.
        batch = ColumnBatch({"x": np.arange(1000)}, 1000)
        handle = batch.to_shared()
        rebuilt = ColumnBatch.from_shared(pickle.loads(pickle.dumps(handle)))
        handle.dispose()
        assert int(rebuilt.columns["x"].sum()) == int(batch.columns["x"].sum())

    def test_dispose_is_idempotent(self):
        handle = ColumnBatch({"x": np.arange(10)}, 10).to_shared()
        handle.dispose()
        handle.dispose()

    def test_no_resource_tracker_warnings(self):
        # Cross-process attach/detach must not register segments with the
        # consumer's resource tracker (that would spray KeyError/leak
        # warnings at interpreter shutdown).
        import multiprocessing

        batch = ColumnBatch({"x": np.arange(4096, dtype=np.int64)}, 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            handle = batch.to_shared()
            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            queue = context.SimpleQueue()
            process = context.Process(
                target=_attach_and_sum, args=(queue, handle)
            )
            process.start()
            total = queue.get()
            process.join(timeout=10)
            handle.dispose()
        assert total == int(batch.columns["x"].sum())
        assert process.exitcode == 0


def _attach_and_sum(queue, handle):
    rebuilt = ColumnBatch.from_shared(handle)
    queue.put(int(rebuilt.columns["x"].sum()))


class TestCompiledOperatorPickle:
    """Satellite: operators cross process boundaries by recipe."""

    @pytest.mark.parametrize("operators", ("row", "columnar"))
    def test_round_trip_matches_original(self, operators):
        """Kernels (the complex plan) and adapted row operators (the
        kernel-less UDAF) both recompile to what they were."""
        packets = random_packets(9)
        if operators == "columnar":
            dag, plan, _, _, _ = _case(9, "complex")
        else:
            dag = last_value_dag()
            plan = DistributedOptimizer(dag, Placement(2, 2), None).optimize()
        backend = EngineBackend(dag)
        nodes = [
            node for node in plan.topological() if node.kind.name != "SOURCE"
        ]
        assert nodes
        prepared = backend.prepare(packets)
        flags = set()
        for node in nodes:
            compiled = backend.compile_node(node)
            rebuilt = pickle.loads(pickle.dumps(compiled))
            assert rebuilt.columnar == compiled.columnar
            assert rebuilt.arity == compiled.arity
            flags.add(compiled.columnar)
            if not node.inputs or len(node.inputs) != 1:
                continue
            # Single-input operators can be exercised directly on raw rows.
            try:
                reference = compiled.process(prepared)
                result = rebuilt.process(prepared)
            except (KeyError, TypeError):
                continue  # operator needs upstream columns; topology tested
            assert type(result) is ColumnBatch
            assert batches_equal(reference.to_rows(), result.to_rows())
        assert (operators == "columnar") in flags

    def test_cache_payload_shares_the_dag(self):
        dag, plan, _, _, _ = _case(9, "complex")
        backend = EngineBackend(dag)
        for node in plan.topological():
            if node.kind.name != "SOURCE":
                backend.compile_node(node)
        operators = list(backend.cached_operators.values())
        assert len(operators) > 1
        rebuilt = pickle.loads(pickle.dumps(operators))
        dags = {id(op.recipe[0]) for op in rebuilt}
        assert len(dags) == 1  # pickle memoized one shared dag

    def test_recipe_free_operator_is_rejected(self):
        compiled = CompiledOperator(object(), columnar=False)
        with pytest.raises(TypeError, match="recipe"):
            pickle.dumps(compiled)
