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
  hosts in a :class:`~repro.runtime.session.NodeTable` — the same table
  and stepping loop the in-process executor uses — so buffers live in
  the worker across epochs.  The pool is fork-only: a worker inherits
  the session's backend (its compile cache already warm, since the
  session compiles every node before any run), its stage nodes and its
  export ids as ``Process`` arguments, which fork never pickles.  No
  worker compiles anything, and kernels never cross a pipe.
* **Nodes never change worker.**  The node -> worker map is fixed at
  pool start: a partition migration only changes which simulated host
  the driver charges, so a migrated node keeps stepping in the worker
  it started in, and the driver asks that worker for its ``buffered``
  row count to price the handoff.
* **Transport** is the worker's pipe, both ways.  The driver sends only
  ``step``, ``ask`` and ``stop`` messages; a worker answers ``ready``
  once, then ``done`` or ``answer``.  Every batch is pickled into the
  pipe and copied out of it, so nothing outlives a message.
* **Failures are loud.** A worker that raises, dies or closes its pipe
  surfaces as one :class:`WorkerFailed` naming its simulated hosts and
  the step (or "at pool start"), after the whole pool has been torn
  down.  A platform without ``fork`` raises :class:`ParallelUnavailable`
  instead, and the run falls back in-process.

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
harness asserts this, bounded queues, fault plans and rebalancing
included).  Only wall-clock durations and the ``pid`` tags in the event
trace differ; after a migration one simulated host's nodes can carry
two workers' pids.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Dict, List, NoReturn, Optional, Sequence, Set, Tuple

from ..distopt.plan_ir import DistKind, DistNode, DistributedPlan
from ..engine.columnar import ColumnBatch
from ..engine.streaming import Watermark
from .backend import EngineBackend
from .session import NodeTable, SourceFeed, StepExecutor, StepOutcome


class ParallelUnavailable(RuntimeError):
    """Parallel execution cannot run here; the session falls back
    in-process and keeps the reason on the run's result."""


class WorkerFailed(RuntimeError):
    """A worker raised, died, or broke its pipe; the pool is torn down."""


# -- the worker process ----------------------------------------------------------


def _worker_main(
    conn,
    backend: EngineBackend,
    epoch_column: str,
    stages: Dict[int, List[DistNode]],
    export_ids: Set[str],
) -> None:  # pragma: no cover — runs in forked children
    """One worker's lifetime: build its table, then one message per
    (step, stage).

    ``backend`` is the driver's (or the proxy the session holds),
    inherited by fork with every kernel compiled; ``stages`` holds this
    worker's nodes per stage, in plan order.  Streaming-node buffers
    persist in this process across steps; step-local outputs and
    watermarks reset whenever a new step index arrives.  Between steps
    the driver may ``ask`` named nodes their
    :meth:`~repro.runtime.session.NodeTable.buffered` row counts (a
    partition migration's handoff price).
    """
    try:
        table = NodeTable(
            backend,
            epoch_column,
            [node for nodes in stages.values() for node in nodes],
        )
        conn.send(("ready",))
        pid = os.getpid()
        current_step = -1
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "ask":
                conn.send(("answer", table.buffered(message[1])))
                continue
            _, step, stage, flush, sources, inbound = message
            if step != current_step:
                current_step = step
                table.clear()
            for node_id, (batch, watermark) in inbound.items():
                table.outputs[node_id] = batch
                table.watermarks[node_id] = watermark
            nodes = stages.get(stage, ())
            out_lens: Dict[str, int] = {}
            walls: Dict[str, float] = {}
            table.step(nodes, flush, sources, out_lens, walls)
            returns = {
                node.node_id: (
                    table.outputs[node.node_id],
                    table.watermarks[node.node_id],
                )
                for node in nodes
                if node.node_id in export_ids
            }
            conn.send(
                ("done", out_lens, walls, returns, table.buffered_rows(), pid)
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
    ):
        # ``plan`` stays in the signature its callers pass positionally;
        # ``order`` already holds every node the pool needs.
        self._order = list(order)
        self._return_ids = set(return_ids)
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
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ParallelUnavailable(
                "this platform cannot fork, and workers inherit the compiled "
                "plan by fork"
            )
        self.worker_count = min(requested, len(hosts_used))
        self._worker_of_host = {
            host: index % self.worker_count for index, host in enumerate(hosts_used)
        }
        self._worker_of = {
            node.node_id: self._worker_of_host[node.host] for node in self._order
        }
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
            sorted({worker for worker, stage in self._stage_nodes if stage == stage_no})
            for stage_no in range(self._num_stages)
        ]
        self._connections: List = []
        self._processes: List = []
        self._step = -1
        self._activity = "at pool start"
        try:
            self._fork_pool(backend, epoch_column)
        except OSError as error:
            self.close()
            raise ParallelUnavailable(
                f"could not start the worker pool: {error}"
            ) from error
        except BaseException:
            self.close()
            raise

    def _fork_pool(self, backend: EngineBackend, epoch_column: str) -> None:
        """Fork one process per worker and wait for each to be ready.

        A worker's share of the plan travels as ``Process`` arguments,
        which fork hands over without pickling.
        """
        context = multiprocessing.get_context("fork")
        for worker in range(self.worker_count):
            stages = {
                stage: nodes
                for (owner, stage), nodes in self._stage_nodes.items()
                if owner == worker
            }
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, backend, epoch_column, stages, self._export_ids),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        for worker in range(self.worker_count):
            self._receive(worker)

    def buffered(self, node_ids: Sequence[str]) -> Dict[str, int]:
        """Ask each named node's worker its ``NodeTable.buffered`` count."""
        self._activity = f"answering buffered before step {self._step + 1}"
        by_worker: Dict[int, List[str]] = {}
        for node_id in node_ids:
            by_worker.setdefault(self._worker_of[node_id], []).append(node_id)
        for worker, ids in sorted(by_worker.items()):
            self._send(worker, ("ask", ids))
        answers: Dict[str, int] = {}
        for worker in sorted(by_worker):
            (reply,) = self._receive(worker)
            answers.update(reply)
        return answers

    def run_step(self, flush: bool, sources: SourceFeed) -> StepOutcome:
        self._step += 1
        step = self._step
        self._activity = f"at step {step}"
        out_lens: Dict[str, int] = {}
        walls: Dict[str, float] = {}
        pids: Dict[str, int] = {}
        produced: Dict[str, Tuple[ColumnBatch, Watermark]] = {}
        buffered_by_worker: Dict[int, int] = {}
        for stage_no in range(self._num_stages):
            participants = self._stage_workers[stage_no]
            for worker in participants:
                message_sources: SourceFeed = {}
                inbound: Dict[str, Tuple[ColumnBatch, Watermark]] = {}
                for node in self._stage_nodes[(worker, stage_no)]:
                    if node.kind is DistKind.SOURCE:
                        message_sources[node.node_id] = sources[node.node_id]
                        continue
                    for child_id in node.inputs:
                        if self._worker_of[child_id] != worker:
                            inbound[child_id] = produced[child_id]
                self._send(
                    worker,
                    ("step", step, stage_no, flush, message_sources, inbound),
                )
            for worker in participants:
                lens, node_walls, returns, buffered, pid = self._receive(worker)
                out_lens.update(lens)
                walls.update(node_walls)
                pids.update(dict.fromkeys(lens, pid))
                produced.update(returns)
                buffered_by_worker[worker] = buffered
        return StepOutcome(
            out_lens=out_lens,
            walls=walls,
            pids=pids,
            returns={
                node_id: produced[node_id][0] for node_id in self._return_ids
            },
            buffered_rows=max(buffered_by_worker.values(), default=0),
        )

    # -- the pipe, and what happens when it breaks --------------------------------

    def _send(self, worker: int, message: tuple) -> None:
        try:
            self._connections[worker].send(message)
        except OSError as error:
            self._fail(worker, f"its pipe broke on send ({error!r})")

    def _receive(self, worker: int) -> tuple:
        try:
            reply = self._connections[worker].recv()
        except (EOFError, OSError):
            self._fail(worker, None)
        if reply[0] == "error":
            self._fail(worker, f"it raised:\n{reply[1]}")
        return reply[1:]

    def _fail(self, worker: int, detail: Optional[str]) -> NoReturn:
        """Tear the pool down and raise :class:`WorkerFailed` for
        ``worker``; a ``detail`` of None means its pipe closed."""
        hosts = ", ".join(
            str(host)
            for host, owner in sorted(self._worker_of_host.items())
            if owner == worker
        )
        process = self._processes[worker]
        self.close(grace=0.0)
        if detail is None:
            detail = f"its pipe closed (exit code {process.exitcode})"
        raise WorkerFailed(
            f"parallel worker {worker} (simulated hosts {hosts}) failed "
            f"{self._activity}: {detail}"
        )

    def close(self, grace: float = 10.0) -> None:
        """Stop every worker: a stop message, ``grace`` seconds to exit,
        then SIGTERM.  Idempotent."""
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=grace)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        for connection in self._connections:
            connection.close()
        self._connections = []
        self._processes = []
