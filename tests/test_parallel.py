"""Multiprocess execution: parity, pipe transport, failures, fallback.

The contract under test: ``execution="parallel"`` is *observationally
identical* to in-process execution — outputs, CPU and network
accounting, flow stats, peak-batch accounting, and the timeline are
exactly equal (``==``, not approximately), because the driver replays
every charge from worker-reported counters in plan order.  Only pids in
the event trace may differ.  A worker that fails takes the pool down
with it and names its simulated hosts and step.
"""

import multiprocessing
import os
import pickle
import random
import re
import signal

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
from repro.distopt import DistKind, DistributedOptimizer, Placement
from repro.engine import batches_equal
from repro.engine.columnar import ColumnBatch
from repro.runtime import parallel as parallel_mod
from repro.runtime.backend import CompiledOperator, EngineBackend
from repro.runtime.flowcontrol import Fault, FaultPlan
from repro.runtime.parallel import (
    ParallelExecutor,
    ParallelUnavailable,
    WorkerFailed,
)

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

    def test_forced_shared_memory_transport(self, small_trace):
        """Whatever the batch size — per-epoch slices, or a one-shot
        run's whole partitions of a 4k-row trace — batches cross the
        worker pipe, and no shared-memory segment is ever created."""
        dag, plan, splitter, packets, hosts = _case(9, "complex")
        before = _shm_entries()
        _, reference = _run(dag, plan, splitter, packets, "inprocess")
        _, result = _run(dag, plan, splitter, packets, "parallel")
        assert result.execution == "parallel"
        assert_identical_simulation(reference, result)
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        trace = {"TCP": small_trace.packets}
        reference = sim.run(trace, splitter, 10.0)
        result = sim.run(trace, splitter, 10.0, execution="parallel")
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
    """Batches shared with a worker: round trips through a real
    ``multiprocessing.Pipe``, the only transport, which leaves no
    shared-memory segment behind."""

    def _roundtrip(self, batch):
        before = _shm_entries()
        sender, receiver = multiprocessing.Pipe()
        try:
            sender.send(batch)
            rebuilt = receiver.recv()
        finally:
            sender.close()
            receiver.close()
        assert _shm_entries() == before
        assert type(rebuilt) is ColumnBatch
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
        # keep their component structure through the pipe.
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
        rebuilt = self._roundtrip(ColumnBatch({}, 0))
        assert rebuilt.length == 0 and rebuilt.columns == {}

    def test_empty_columns_need_no_segment(self):
        # Typed empty columns keep their dtypes (kernels emit them).
        batch = ColumnBatch(
            {"a": np.array([], dtype=np.int64), "b": np.array([], dtype=float)},
            0,
        )
        rebuilt = self._roundtrip(batch)
        assert rebuilt.columns["a"].dtype == np.int64
        assert rebuilt.columns["b"].dtype == np.float64
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


class _Sabotaged:
    """A streaming node that runs ``action`` before its ``at``-th step."""

    def __init__(self, inner, action, at):
        self._inner = inner
        self._action = action
        self._left = at

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def step(self, inputs, watermarks, flush):
        self._left -= 1
        if self._left == 0:
            self._action()
        return self._inner.step(inputs, watermarks, flush)


def _sabotage_workers(monkeypatch, action, host=None, at=None):
    """Streaming nodes built in a forked worker (on ``host``, or on any
    host) run ``action`` before their ``at``-th step — or while being
    built, when ``at`` is None.  The driver's own nodes are untouched."""
    build = EngineBackend.streaming_node
    driver = os.getpid()

    def streaming_node(backend, node):
        if os.getpid() == driver or host not in (None, node.host):
            return build(backend, node)
        if at is None:
            action()
        return _Sabotaged(build(backend, node), action, at)

    monkeypatch.setattr(EngineBackend, "streaming_node", streaming_node)


def _raise_injected():
    raise RuntimeError("injected operator failure")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerFailures:
    """A failing worker is loud and attributable, and the pool goes down
    with it: no child process and no shared-memory segment survives."""

    def test_failed_pool_start_leaves_no_worker(self, monkeypatch):
        _sabotage_workers(monkeypatch, _raise_injected)
        dag, plan, splitter, packets, _ = _case(9, "complex")
        with pytest.raises(WorkerFailed, match="at pool start") as caught:
            _run(dag, plan, splitter, packets, "parallel")
        assert "injected operator failure" in str(caught.value)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("action", (_raise_injected, _kill_self),
                             ids=("raise", "sigkill"))
    def test_failure_names_host_and_step(self, monkeypatch, action):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        host = max(
            node.host for node in plan.topological()
            if node.kind is not DistKind.SOURCE
        )
        _sabotage_workers(monkeypatch, action, host=host, at=4)
        before = _shm_entries()
        with pytest.raises(WorkerFailed) as caught:
            _run(dag, plan, splitter, packets, "parallel")
        message = str(caught.value)
        named = re.search(
            r"simulated hosts ([\d, ]+)\) failed at step (\d+)", message
        )
        assert named, message
        assert str(host) in named.group(1).split(", ")
        assert named.group(2) == "3"  # the 4th step, counted from 0
        if action is _kill_self:
            assert f"exit code {-signal.SIGKILL}" in message
        else:
            assert "injected operator failure" in message
        assert multiprocessing.active_children() == []
        assert _shm_entries() == before


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
