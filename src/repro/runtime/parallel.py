"""Multiprocess host execution: each simulated host's pipeline in its own
OS process.

The paper's premise is that query-aware partitioning lets independent
hosts absorb a massive stream *concurrently*; this module makes that
true on the wall clock instead of only in the §4.2.1 cost model.  A
:class:`ParallelExecutor` forks a persistent worker pool once per run —
one worker per simulated host, capped at ``workers`` — and plugs into
the :class:`~repro.runtime.session.StepExecutor` seam:

* The **driver** keeps everything that defines the simulation's
  semantics: the splitter (router), the ingest controller (flow control
  and fault injection), watermark bounds for sources, and every cost
  charge — the session replays charges from worker-reported counters in
  plan order, so CPU/network accounting and flow stats are identical to
  the in-process run *by construction*, not by reconciliation.
* Each **worker** owns the stateful streaming nodes of its assigned
  hosts (buffers live in the worker across epochs).  Workers receive
  their :class:`~repro.runtime.backend.CompiledOperator` cache at pool
  start through the pickle-by-recipe protocol (operators recompile on
  arrival — vectorized closures never cross the process boundary).
* **Transport** is shared memory where it counts: batches above
  :data:`SHARED_MIN_BYTES` travel driver→worker as
  :class:`~repro.engine.columnar.SharedColumnBatch` descriptors (the hot
  numeric payload is never pickled), with a plain-pickle fallback for
  small ones.  The driver disposes every segment as
  soon as the receiving stage has replied (workers copy out), so no
  segment outlives its step.

Cross-host dataflow is scheduled in **stages**: a node's stage is the
maximum over its children of the child's stage, plus one whenever the
edge crosses workers.  All of one stage's messages go out before any of
its replies are awaited, so independent hosts genuinely overlap; the
typical plan (leaf sub-aggregates feeding one aggregator) runs in two
stages — every leaf worker in parallel, then the aggregator's worker.

Determinism contract: workers execute the same compiled operators on the
same batches in the same per-node order as the in-process executor, and
the driver merges results in plan-topological order — outputs, CPU and
network accounting, flow stats, peak-batch accounting, and the timeline
are exactly equal to ``execution="inprocess"`` (the randomized parity
harness asserts this, bounded queues and fault plans included).  Only
wall-clock durations and the ``pid`` tags in the event trace differ.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..distopt.plan_ir import DistKind, DistNode, DistributedPlan
from ..engine.columnar import ColumnBatch
from ..engine.streaming import StreamingNode, Watermark
from .backend import EngineBackend, _operator_key
from .session import SourceFeed, StepExecutor, StepOutcome

#: Batches whose numeric payload reaches this many bytes travel
#: driver→worker via shared memory; smaller ones are cheaper to pickle.
SHARED_MIN_BYTES = 1024

#: Start methods in preference order: fork is cheapest and inherits the
#: compiled driver state; spawn/forkserver work because every init
#: payload is picklable (operators ship by recipe).
_START_METHODS = ("fork", "forkserver", "spawn")


class ParallelUnavailable(RuntimeError):
    """Parallel execution cannot run here; the session falls back
    in-process and records the reason in the event trace."""


def _start_context():
    available = multiprocessing.get_all_start_methods()
    for method in _START_METHODS:
        if method in available:
            return multiprocessing.get_context(method)
    return None


def _payload_bytes(batch: ColumnBatch) -> int:
    """The numeric bytes :meth:`ColumnBatch.to_shared` would place in a
    segment (object-dtype columns ride by pickle either way)."""
    total = 0
    for column in batch.columns.values():
        for part in column if isinstance(column, tuple) else (column,):
            array = np.asarray(part)
            if not array.dtype.hasobject:
                total += array.nbytes
    return total


def _encode(batch: ColumnBatch, handles: List) -> tuple:
    """Driver-side batch encoding for one pipe message.

    Shared-memory segments created here are appended to ``handles``; the
    caller disposes them once the receiving stage has replied.
    """
    if _payload_bytes(batch) >= SHARED_MIN_BYTES:
        handle = batch.to_shared()
        handles.append(handle)
        return ("shm", handle)
    return ("raw", batch)


def _decode(payload: tuple) -> ColumnBatch:
    kind, value = payload
    if kind == "shm":
        return ColumnBatch.from_shared(value)
    return value


# -- the worker process ----------------------------------------------------------


def _worker_main(conn) -> None:  # pragma: no cover — runs in forked children
    """One worker's lifetime: init, then one message per (step, stage).

    The init message carries the (pickle-shared) query dag, this worker's
    plan nodes with their stage numbers, the compiled operators for those
    nodes (recompiled on unpickling via their recipes), the node ids whose
    outputs must be returned to the driver, and the epoch column.  Streaming-node buffers persist in this
    process across steps; step-local outputs/watermarks reset whenever a
    new step index arrives.

    Between steps the driver may re-pin nodes across workers (adaptive
    rebalancing): ``export`` hands a departing node's buffered state
    back, ``buffered`` reports state sizes without moving anything, and
    ``reassign`` installs a fresh node/stage assignment — dropping
    surrendered nodes, adopting incoming ones (state imported into a
    newly built streaming node), and rebinding the export set.
    """
    try:
        message = conn.recv()
        (_, dag, assigned, operators, export_ids, epoch_column,
         hint_ids) = message
        backend = EngineBackend(dag)
        for compiled in operators:
            backend.cached_operators[_operator_key(compiled.recipe[1])] = compiled
        by_stage: Dict[int, List[DistNode]] = {}
        for node, stage in assigned:
            by_stage.setdefault(stage, []).append(node)
        snodes: Dict[str, StreamingNode] = {
            node.node_id: backend.streaming_node(node)
            for node, _ in assigned
            if node.kind is not DistKind.SOURCE
        }
        pid = os.getpid()
        conn.send(("ready", pid))
        outputs: Dict[str, ColumnBatch] = {}
        watermarks: Dict[str, Watermark] = {}
        current_step = -1
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "export":
                # Surrender the named nodes: pop each streaming node and
                # return its window/join state plus its buffered-row
                # count (sources have no state — (None, 0)).
                payload = {}
                for node_id in message[1]:
                    snode = snodes.pop(node_id, None)
                    if snode is None:
                        payload[node_id] = (None, 0)
                    else:
                        payload[node_id] = (
                            snode.export_state(), snode.buffered_rows()
                        )
                conn.send(("exported", payload))
                continue
            if message[0] == "buffered":
                # Report state sizes for nodes re-homed within this
                # worker (the simulated hosts differ, the process not).
                conn.send(
                    (
                        "counts",
                        {
                            node_id: (
                                snodes[node_id].buffered_rows()
                                if node_id in snodes
                                else 0
                            )
                            for node_id in message[1]
                        },
                    )
                )
                continue
            if message[0] == "reassign":
                _, assigned, operators, new_exports, adopted = message
                for compiled in operators:
                    backend.cached_operators[
                        _operator_key(compiled.recipe[1])
                    ] = compiled
                by_stage = {}
                keep = set()
                for node, stage in assigned:
                    by_stage.setdefault(stage, []).append(node)
                    keep.add(node.node_id)
                for node_id in list(snodes):
                    if node_id not in keep:
                        del snodes[node_id]
                for node, _ in assigned:
                    node_id = node.node_id
                    if node.kind is DistKind.SOURCE or node_id in snodes:
                        continue
                    snode = backend.streaming_node(node)
                    state = adopted.get(node_id)
                    if state is not None:
                        snode.import_state(state)
                    snodes[node_id] = snode
                export_ids = new_exports
                conn.send(("ready", pid))
                continue
            _, step, stage, flush, sources, inbound = message
            if step != current_step:
                current_step = step
                outputs.clear()
                watermarks.clear()
            for node_id, (payload, watermark) in inbound.items():
                outputs[node_id] = _decode(payload)
                watermarks[node_id] = watermark
            stats: Dict[str, Tuple[int, float]] = {}
            returns: Dict[str, object] = {}
            out_watermarks: Dict[str, Watermark] = {}
            hints: Dict[str, object] = {}
            for node in by_stage.get(stage, ()):
                node_id = node.node_id
                if node.kind is DistKind.SOURCE:
                    payload, bound = sources[node_id]
                    outputs[node_id] = _decode(payload)
                    watermarks[node_id] = {epoch_column: bound}
                else:
                    snode = snodes[node_id]
                    inputs = [outputs[child_id] for child_id in node.inputs]
                    input_watermarks = [
                        watermarks[child_id] for child_id in node.inputs
                    ]
                    started = time.perf_counter()
                    result, watermark = snode.step(inputs, input_watermarks, flush)
                    wall = time.perf_counter() - started
                    outputs[node_id] = result
                    watermarks[node_id] = watermark
                    stats[node_id] = (len(result), wall)
                    if node_id in hint_ids:
                        # A node steps exactly once per step, so this
                        # post-step snapshot equals what the in-process
                        # executor reads after its own loop.
                        hints[node_id] = snode.value_hints()
                if node_id in export_ids:
                    returns[node_id] = outputs[node_id]
                    out_watermarks[node_id] = watermarks[node_id]
            buffered = max(
                (snode.buffered_rows() for snode in snodes.values()), default=0
            )
            conn.send(
                ("done", stats, returns, out_watermarks, buffered, pid, hints)
            )
    except (EOFError, KeyboardInterrupt):
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()


# -- the driver-side executor ----------------------------------------------------


class ParallelExecutor(StepExecutor):
    """Routes each step's partitions to host-owning worker processes."""

    mode = "parallel"

    def __init__(
        self,
        plan: DistributedPlan,
        backend: EngineBackend,
        order: Sequence[DistNode],
        epoch_column: str,
        return_ids: Set[str],
        workers: Optional[int] = None,
        hint_ids: Optional[Set[str]] = None,
    ):
        self._order = list(order)
        self._return_ids = set(return_ids)
        self._hint_ids = set(hint_ids) if hint_ids else set()
        hosts_used = sorted({node.host for node in self._order})
        requested = workers if workers is not None else len(hosts_used)
        if len(hosts_used) < 2:
            raise ParallelUnavailable(
                "plan places every node on a single host; nothing to run in parallel"
            )
        if requested < 2:
            raise ParallelUnavailable(
                f"parallel execution needs at least 2 workers, got workers={requested}"
            )
        context = _start_context()
        if context is None:
            raise ParallelUnavailable("no multiprocessing start method is available")
        self.worker_count = min(requested, len(hosts_used))
        self._backend = backend
        self._worker_of_host = {
            host: index % self.worker_count for index, host in enumerate(hosts_used)
        }
        self._worker_of = {
            node.node_id: self._worker_of_host[node.host] for node in self._order
        }
        stage_of = self._rebuild_topology()
        self._connections: List = []
        self._processes: List = []
        self._pids: List[int] = []
        self._step = -1
        try:
            self._fork_pool(context, plan, backend, epoch_column, stage_of)
        except OSError as error:
            self.close()
            raise ParallelUnavailable(
                f"could not start the worker pool: {error}"
            ) from error

    def _rebuild_topology(self) -> Dict[str, int]:
        """Derive stages, exports, and per-(worker, stage) node lists
        from the current node→worker map; returns the stage map.

        Called at pool start and again after every :meth:`repin` — the
        stage schedule and export set depend on which edges cross
        workers, and re-pinning changes exactly that.
        """
        # Stage scheduling: a node waits one messaging round for every
        # worker boundary on its critical path.  Same-worker edges are
        # free (the producer's output is already in the worker).
        stage_of: Dict[str, int] = {}
        for node in self._order:
            stage = 0
            for child_id in node.inputs:
                boundary = self._worker_of[child_id] != self._worker_of[node.node_id]
                stage = max(stage, stage_of[child_id] + (1 if boundary else 0))
            stage_of[node.node_id] = stage
        self._num_stages = max(stage_of.values()) + 1 if stage_of else 1
        # Nodes whose outputs the driver needs back: plan delivery plus
        # every producer consumed across a worker boundary.
        export_ids = set(self._return_ids)
        for node in self._order:
            for child_id in node.inputs:
                if self._worker_of[child_id] != self._worker_of[node.node_id]:
                    export_ids.add(child_id)
        self._export_ids = export_ids
        # Per (worker, stage): the nodes that run there, in plan order.
        self._stage_nodes: Dict[Tuple[int, int], List[DistNode]] = {}
        for node in self._order:
            key = (self._worker_of[node.node_id], stage_of[node.node_id])
            self._stage_nodes.setdefault(key, []).append(node)
        self._stage_workers: List[List[int]] = [
            sorted(
                {
                    worker
                    for (worker, stage) in self._stage_nodes
                    if stage == stage_no
                }
            )
            for stage_no in range(self._num_stages)
        ]
        return stage_of

    def repin(self, changed: Dict[str, int]) -> Dict[str, int]:
        """Move re-homed nodes between workers; return their state sizes.

        ``changed`` maps node ids to their new *simulated* host.  The
        host→worker map is fixed at pool start, so a migration between
        hosts sharing a worker is pure bookkeeping; across workers the
        losing process exports the node's buffered state through the
        driver to the adopting process.  Either way the returned counts
        let the session charge the handoff as host→host network traffic.
        """
        if not changed:
            return {}
        node_of = {node.node_id: node for node in self._order}
        new_worker: Dict[str, int] = {}
        for node_id, host in changed.items():
            worker = self._worker_of_host.get(host)
            if worker is None:
                # A host that owned no static nodes: give it a stable
                # worker assignment consistent with the modular layout.
                worker = host % self.worker_count
                self._worker_of_host[host] = worker
            new_worker[node_id] = worker
        moves = {
            node_id: worker
            for node_id, worker in new_worker.items()
            if worker != self._worker_of[node_id]
        }
        buffered: Dict[str, int] = {}
        states: Dict[str, object] = {}
        by_loser: Dict[int, List[str]] = {}
        for node_id in sorted(moves):
            by_loser.setdefault(self._worker_of[node_id], []).append(node_id)
        for worker, ids in sorted(by_loser.items()):
            self._connections[worker].send(("export", ids))
        for worker, ids in sorted(by_loser.items()):
            (payload,) = self._receive(worker)
            for node_id, (state, rows) in payload.items():
                states[node_id] = state
                buffered[node_id] = rows
        by_stayer: Dict[int, List[str]] = {}
        for node_id in sorted(changed):
            if node_id not in moves:
                by_stayer.setdefault(self._worker_of[node_id], []).append(node_id)
        for worker, ids in sorted(by_stayer.items()):
            self._connections[worker].send(("buffered", ids))
        for worker, ids in sorted(by_stayer.items()):
            (payload,) = self._receive(worker)
            buffered.update(payload)
        self._worker_of.update(moves)
        stage_of = self._rebuild_topology()
        # Every worker gets the fresh assignment: stages and exports can
        # shift even for workers that neither lost nor gained a node.
        for worker, connection in enumerate(self._connections):
            assigned = [
                (node, stage_of[node.node_id])
                for node in self._order
                if self._worker_of[node.node_id] == worker
            ]
            operators = list(
                {
                    _operator_key(node): self._backend.compile_node(node)
                    for node, _ in assigned
                    if node.kind is not DistKind.SOURCE
                }.values()
            )
            exports = {
                node.node_id for node, _ in assigned
                if node.node_id in self._export_ids
            }
            adopted = {
                node_id: states.get(node_id)
                for node_id, target in moves.items()
                if target == worker
                and node_of[node_id].kind is not DistKind.SOURCE
            }
            connection.send(("reassign", assigned, operators, exports, adopted))
        for worker in range(self.worker_count):
            self._receive(worker)
        return {node_id: buffered.get(node_id, 0) for node_id in changed}

    def _fork_pool(
        self,
        context,
        plan: DistributedPlan,
        backend: EngineBackend,
        epoch_column: str,
        stage_of: Dict[str, int],
    ) -> None:
        """Fork one process per worker and ship each its init payload.

        The payload goes through the pipe (never fork-inherited), so the
        compiled-operator pickle protocol is exercised on every start
        method; pickle memoization ships the dag once per worker.
        """
        for worker in range(self.worker_count):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        dag = backend.dag
        for worker, connection in enumerate(self._connections):
            assigned = [
                (node, stage_of[node.node_id])
                for node in self._order
                if self._worker_of[node.node_id] == worker
            ]
            operators = list(
                {
                    _operator_key(node): backend.compile_node(node)
                    for node, _ in assigned
                    if node.kind is not DistKind.SOURCE
                }.values()
            )
            exports = {
                node.node_id for node, _ in assigned
                if node.node_id in self._export_ids
            }
            connection.send(
                ("init", dag, assigned, operators, exports, epoch_column,
                 self._hint_ids)
            )
        for worker, connection in enumerate(self._connections):
            reply = self._receive(worker)
            self._pids.append(reply[0])

    def run_step(self, flush: bool, sources: SourceFeed) -> StepOutcome:
        self._step += 1
        out_lens: Dict[str, int] = {}
        walls: Dict[str, float] = {}
        pids: Dict[str, int] = {}
        produced: Dict[str, ColumnBatch] = {}
        watermarks: Dict[str, Watermark] = {}
        buffered_by_worker: Dict[int, int] = {}
        value_hints: Dict[str, object] = {}
        for stage_no in range(self._num_stages):
            handles: List = []
            participants = self._stage_workers[stage_no]
            for worker in participants:
                message_sources: Dict[str, tuple] = {}
                inbound: Dict[str, tuple] = {}
                for node in self._stage_nodes[(worker, stage_no)]:
                    if node.kind is DistKind.SOURCE:
                        batch, bound = sources[node.node_id]
                        message_sources[node.node_id] = (
                            _encode(batch, handles), bound,
                        )
                        continue
                    for child_id in node.inputs:
                        if self._worker_of[child_id] == worker:
                            continue
                        inbound[child_id] = (
                            _encode(produced[child_id], handles),
                            watermarks[child_id],
                        )
                self._connections[worker].send(
                    ("step", self._step, stage_no, flush, message_sources, inbound)
                )
            for worker in participants:
                (stats, returns, reply_watermarks, buffered, pid,
                 hints) = self._receive(worker)
                for node_id, (rows_out, wall) in stats.items():
                    out_lens[node_id] = rows_out
                    walls[node_id] = wall
                    pids[node_id] = pid
                produced.update(returns)
                watermarks.update(reply_watermarks)
                buffered_by_worker[worker] = buffered
                value_hints.update(hints)
            # Workers copied the payload out before replying: every one of
            # this stage's segments can be unlinked now.
            for handle in handles:
                handle.dispose()
        return StepOutcome(
            out_lens=out_lens,
            walls=walls,
            pids=pids,
            returns={node_id: produced[node_id] for node_id in self._return_ids},
            buffered_rows=max(buffered_by_worker.values(), default=0),
            value_hints=value_hints,
        )

    def _receive(self, worker: int) -> tuple:
        try:
            reply = self._connections[worker].recv()
        except EOFError:
            raise RuntimeError(
                f"parallel worker {worker} exited unexpectedly"
            ) from None
        if reply[0] == "error":
            raise RuntimeError(
                f"parallel worker {worker} failed:\n{reply[1]}"
            )
        return reply[1:]

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=10)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        for connection in self._connections:
            connection.close()
        self._connections = []
        self._processes = []
