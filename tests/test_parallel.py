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
import multiprocessing.connection
import os
import random
import re
import signal

import pytest

from tests.parity import (
    SOURCES,
    assert_identical_simulation,
    assert_matches_centralized,
    assert_same_outputs,
    deploy,
    last_value_dag,
    random_case,
    random_packets,
    skewed_packets,
    splitter_for,
    tcp_source,
)

from repro.cluster import ClusterSimulator, QueuePolicy
from repro.cluster import simulator as simulator_mod
from repro.distopt import DistKind, DistributedOptimizer, Placement
from repro.engine import columnar
from repro.engine.columnar import ColumnBatch
from repro.partitioning import PartitioningSet
from repro.runtime import RebalancePolicy
from repro.runtime import backend as backend_mod
from repro.runtime import parallel as parallel_mod
from repro.runtime.backend import EngineBackend
from repro.runtime.flowcontrol import Fault, FaultPlan
from repro.runtime.parallel import (
    ParallelExecutor,
    ParallelUnavailable,
    WorkerFailed,
)
from repro.workloads import suspicious_flows_catalog

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

    def _fallback(self, dag, plan, splitter, packets, **options):
        """A run asked to be parallel that steps in-process: the reason is
        on the result, printed by its summary, and in the event trace."""
        sim, result = _run(
            dag, plan, splitter, packets, "parallel", record_events=True,
            **options,
        )
        assert result.execution == "inprocess"
        (mode_event,) = [
            e for e in sim.metrics.events if e["event"] == "execution"
        ]
        assert mode_event["mode"] == "inprocess"
        assert mode_event["reason"] == result.execution_fallback
        assert (
            f"execution inprocess (parallel fell back: {result.execution_fallback})"
            in result.summary().splitlines()
        )
        return result

    def test_workers_one_falls_back(self):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        result = self._fallback(dag, plan, splitter, packets, workers=1)
        assert "workers" in result.execution_fallback

    def test_single_host_plan_falls_back(self):
        seed = next(s for s in range(50) if _case(s, "suspicious")[4] == 1)
        dag, plan, splitter, packets, _ = _case(seed, "suspicious")
        result = self._fallback(dag, plan, splitter, packets)
        assert "single host" in result.execution_fallback

    def test_no_start_method_falls_back(self, monkeypatch):
        """A platform without ``fork`` cannot hand workers the compiled
        plan, so the run steps in-process, identically."""
        monkeypatch.setattr(
            parallel_mod.multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        dag, plan, splitter, packets, hosts = _case(9, "complex")
        assert hosts > 1
        _, reference = _run(dag, plan, splitter, packets, "inprocess")
        result = self._fallback(dag, plan, splitter, packets)
        assert "cannot fork" in result.execution_fallback
        assert_identical_simulation(reference, result)

    def test_a_run_as_asked_has_no_fallback(self):
        dag, plan, splitter, packets, _ = _case(9, "complex")
        for execution in ("inprocess", "parallel"):
            _, result = _run(dag, plan, splitter, packets, execution)
            assert result.execution == execution
            assert result.execution_fallback is None
            assert f"execution {execution}" in result.summary().splitlines()

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


def _forbid_compilation(monkeypatch):
    """From now on, any kernel build raises."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a kernel was compiled after the session")

    for builder in ("build_variant_kernel", "build_columnar_nullpad",
                    "ColumnarMergeOp"):
        monkeypatch.setattr(backend_mod, builder, forbidden)


class _ProxyBackend:
    """A stand-in for a wrapper around the session's backend (the
    benchmark's tracing proxy is one): it forwards everything, and calls
    ``on_build`` before it builds each streaming node."""

    def __init__(self, inner, on_build):
        self._inner = inner
        self._on_build = on_build

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def streaming_node(self, node):
        self._on_build()
        return self._inner.streaming_node(node)


class TestCompiledOperatorPickle:
    """The session compiles once, in the driver: forked workers inherit
    its kernels, no kernel crosses a pipe, and only ``step``/``ask``/
    ``stop`` messages go out.  (The ids predate the fork-only pool, when
    operators travelled by a pickled recipe and recompiled on arrival.)"""

    @pytest.mark.parametrize("operators", ("row", "columnar"))
    def test_round_trip_matches_original(self, operators, monkeypatch):
        """After the session has compiled, no kernel can be built; a
        parallel run still forks, steps every node and answers what the
        centralized §3.4 oracle answers — array kernels (the complex
        plan) and the kernels that fold a UDAF's row protocol per group
        alike."""
        packets = random_packets(9)
        if operators == "columnar":
            dag, plan, splitter, _, _ = _case(9, "complex")
        else:
            # LAST_VALUE is order-sensitive: hashing on its group key
            # keeps each group's rows in one partition, in trace order.
            dag = last_value_dag()
            ps = PartitioningSet.of("srcIP")
            placement = Placement(2, 2)
            plan = DistributedOptimizer(dag, placement, ps).optimize()
            splitter = splitter_for(placement.num_partitions, ps)
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        folds = any(
            isinstance(kernel, columnar._UdafFold)
            for operator in sim.session.backend.cached_operators.values()
            for kernel in getattr(operator, "_kernels", ())
        )
        assert folds == (operators == "row")
        _forbid_compilation(monkeypatch)
        for run in (sim.run, sim.run_streaming):
            result = run({"TCP": packets}, splitter, 10.0, execution="parallel")
            assert result.execution == "parallel"
            assert result.outputs.row_count() > 0
            assert_matches_centralized(dag, packets, result)

    def test_cache_payload_shares_the_dag(self, monkeypatch):
        """The driver sends only ``step``, ``ask`` and ``stop``: no init
        payload, no dag, no kernel.  A rebalancing run asks its workers
        for buffered rows, so all three kinds go out."""
        driver = os.getpid()
        sent = []
        send = multiprocessing.connection.Connection.send

        def recording_send(connection, message):
            if os.getpid() == driver:
                sent.append(message[0])
            return send(connection, message)

        monkeypatch.setattr(
            multiprocessing.connection.Connection, "send", recording_send
        )
        sim, splitter = deploy(
            suspicious_flows_catalog()[1], 3, PartitioningSet.of("srcIP"),
            merge_local=False,
        )
        result = sim.run_streaming(
            {"TCP": skewed_packets(1)}, splitter, 10.0,
            rebalance=RebalancePolicy(threshold=1.1, window=1, cooldown=1),
            execution="parallel", workers=2,
        )
        assert result.execution == "parallel"
        assert result.rebalance.migrations
        assert set(sent) == {"step", "ask", "stop"}

    def test_recipe_free_operator_is_rejected(self, monkeypatch):
        """Workers step through whatever backend object the session
        holds, a forwarding proxy included: while the proxy refuses to
        build nodes outside the driver, the pool fails at start; once it
        builds them, the run is identical to in-process."""
        dag, plan, splitter, packets, _ = _case(9, "complex")
        driver = os.getpid()
        refuse = [True]

        def refuse_in_worker():
            if refuse[0] and os.getpid() != driver:
                raise RuntimeError("the proxy reached the worker")

        monkeypatch.setattr(
            simulator_mod, "EngineBackend",
            lambda dag: _ProxyBackend(EngineBackend(dag), refuse_in_worker),
        )
        sim = ClusterSimulator(dag, plan, stream_rate=1000)
        assert type(sim.session.backend) is _ProxyBackend
        with pytest.raises(WorkerFailed, match="at pool start") as caught:
            sim.run_streaming({"TCP": packets}, splitter, 10.0,
                              execution="parallel")
        assert "the proxy reached the worker" in str(caught.value)
        assert multiprocessing.active_children() == []
        refuse[0] = False
        _, reference = _run(dag, plan, splitter, packets, "inprocess")
        result = sim.run_streaming({"TCP": packets}, splitter, 10.0,
                                   execution="parallel")
        assert result.execution == "parallel"
        assert_identical_simulation(reference, result)
