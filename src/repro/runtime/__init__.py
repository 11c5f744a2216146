"""The layered execution runtime.

Six modules, each with one responsibility:

* :mod:`repro.runtime.backend` — the engine backend.  The
  :class:`~repro.runtime.backend.EngineBackend` compiles plan nodes into
  kernels over ``ColumnBatch``es, once per node, at plan-compile time.
* :mod:`repro.runtime.session` — the unified epoch driver.
  :class:`~repro.runtime.session.ExecutionSession` executes a distributed
  plan one epoch at a time; a one-shot run is the degenerate single-epoch
  case, so splitting, ingest, watermark flushing, and cost charging exist
  in exactly one loop.
* :mod:`repro.runtime.metrics` — the observability spine.
  :class:`~repro.runtime.metrics.MetricsRecorder` owns every per-host,
  per-link, per-epoch, and per-node counter, assembles the
  :class:`~repro.runtime.metrics.Timeline`, and can emit a JSON-lines
  event trace for offline inspection.
* :mod:`repro.runtime.flowcontrol` — backpressure and fault injection.
  A :class:`~repro.runtime.flowcontrol.QueuePolicy` bounds each host's
  per-epoch ingest (block / drop-newest / drop-oldest) and a
  :class:`~repro.runtime.flowcontrol.FaultPlan` injects host skips,
  delayed delivery, and duplicate delivery; drops and faults are charged
  to the recorder as per-epoch, per-host counters and ``drop``/``fault``
  events.
* :mod:`repro.runtime.rebalance` — adaptive repartitioning under skew.
  A :class:`~repro.runtime.rebalance.RebalancePolicy` lets hot
  partitions migrate to cooler hosts at epoch boundaries; a migration
  changes which host is charged, never the dataflow.
* :mod:`repro.runtime.parallel` — multiprocess host execution.  A
  :class:`~repro.runtime.parallel.ParallelExecutor` forks one worker
  process per simulated host and plugs into the session's
  :class:`~repro.runtime.session.StepExecutor` seam; each worker inherits
  the compiled backend by fork and steps its hosts' nodes through the
  same :class:`~repro.runtime.session.NodeTable` as the in-process
  executor, batches cross the worker pipe by pickle, and the driver
  replays all accounting, so results are identical to in-process
  execution.  A failing worker raises
  :class:`~repro.runtime.parallel.WorkerFailed` after the pool is torn
  down.

A run is described once, by :class:`~repro.runtime.session.RunOptions`
and the policies it holds (``QueuePolicy``, ``FaultPlan``,
``RebalancePolicy``), all exported here.
:class:`~repro.cluster.simulator.ClusterSimulator` remains the
backwards-compatible facade over these layers.
"""

from .backend import EngineBackend, create_backend
from .flowcontrol import (
    BLOCK,
    DROP_NEWEST,
    DROP_OLDEST,
    FAULT_KINDS,
    QUEUE_MODES,
    Fault,
    FaultPlan,
    IngestController,
    QueuePolicy,
    QueuedIngestController,
    create_ingest_controller,
)
from .metrics import HostFlowStats, MetricsRecorder, NodeStats, Timeline
from .parallel import ParallelExecutor, ParallelUnavailable, WorkerFailed
from .rebalance import RebalanceLog, RebalancePolicy
from .session import (
    EXECUTION_MODES,
    DeliveredRows,
    ExecutionSession,
    InProcessExecutor,
    NodeTable,
    RunOptions,
    SimulationResult,
    StepExecutor,
    StepOutcome,
)

__all__ = [
    "BLOCK",
    "EXECUTION_MODES",
    "DeliveredRows",
    "DROP_NEWEST",
    "DROP_OLDEST",
    "EngineBackend",
    "ExecutionSession",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "HostFlowStats",
    "InProcessExecutor",
    "IngestController",
    "MetricsRecorder",
    "NodeStats",
    "NodeTable",
    "ParallelExecutor",
    "ParallelUnavailable",
    "QUEUE_MODES",
    "QueuePolicy",
    "QueuedIngestController",
    "RebalanceLog",
    "RebalancePolicy",
    "RunOptions",
    "SimulationResult",
    "StepExecutor",
    "StepOutcome",
    "Timeline",
    "WorkerFailed",
    "create_backend",
    "create_ingest_controller",
]
