"""The cluster simulator: a thin facade over the layered runtime.

Replaces the paper's live 4-host Gigascope cluster.  The simulator is
deterministic: it executes every physical operator of a
:class:`~repro.distopt.plan_ir.DistributedPlan` with real row semantics,
while charging CPU cost units to hosts and counting tuples that cross host
boundaries — the two quantities the paper's evaluation figures report.

The actual machinery lives in :mod:`repro.runtime`:

* an :class:`~repro.runtime.backend.EngineBackend` compiles plan nodes
  into kernels over :class:`~repro.engine.columnar.ColumnBatch`es, once,
  at compile time;
* an :class:`~repro.runtime.session.ExecutionSession` drives the unified
  epoch loop (one-shot execution is the single-epoch degenerate case);
* a :class:`~repro.runtime.metrics.MetricsRecorder` owns every counter
  and assembles the per-epoch :class:`~repro.runtime.metrics.Timeline`.

This module keeps the stable public surface: ``ClusterSimulator`` with
``run``/``run_streaming``, plus re-exported ``SimulationResult``,
``Timeline`` and the description of a run (``RunOptions`` and the
policies it holds).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..distopt.plan_ir import DistributedPlan
from ..plan.dag import QueryDag
from ..runtime.backend import EngineBackend
from ..runtime.flowcontrol import FaultPlan, QueuePolicy
from ..runtime.metrics import MetricsRecorder, Timeline
from ..runtime.rebalance import RebalanceLog, RebalancePolicy
from ..runtime.session import ExecutionSession, RunOptions, SimulationResult
from .costs import DEFAULT_COSTS, CostTable, default_capacity
from .host import Host
from .network import NetworkMeter
from .splitter import Splitter

__all__ = [
    "ClusterSimulator",
    "FaultPlan",
    "QueuePolicy",
    "RebalanceLog",
    "RebalancePolicy",
    "RunOptions",
    "SimulationResult",
    "Timeline",
]


class ClusterSimulator:
    """Executes distributed plans over traces with cost accounting."""

    def __init__(
        self,
        dag: QueryDag,
        plan: DistributedPlan,
        stream_rate: float,
        costs: CostTable = DEFAULT_COSTS,
        host_capacity: Optional[float] = None,
        record_events: bool = False,
    ):
        """``stream_rate`` is the total input rate in tuples/second; the
        default host capacity derives from it (see costs.py) so loads are
        expressed relative to the monitored link, as in the paper.

        Every plan node runs a NumPy batch kernel; a UDAF's own
        state/merge/final protocol is folded per group inside the
        aggregate kernels.  Sources may be row lists or
        ``ColumnBatch``es (rows are converted once, on entry), and the
        cost model charges simulated per-tuple work, not wall-clock time.

        With ``record_events`` the metrics recorder keeps a structured
        event trace (see :meth:`MetricsRecorder.dump_events`).
        """
        capacity = host_capacity if host_capacity is not None else default_capacity(
            stream_rate
        )
        self._hosts = [Host(i, capacity) for i in range(plan.num_hosts)]
        self._recorder = MetricsRecorder(
            self._hosts, NetworkMeter(), costs, record_events=record_events
        )
        self._session = ExecutionSession(
            dag, plan, EngineBackend(dag), self._recorder
        )

    @property
    def hosts(self) -> List[Host]:
        return self._hosts

    @property
    def session(self) -> ExecutionSession:
        return self._session

    @property
    def metrics(self) -> MetricsRecorder:
        return self._recorder

    def run(
        self,
        source_rows: Mapping[str, Sequence[dict]],
        splitter: Splitter,
        duration_sec: float,
        **options,
    ) -> SimulationResult:
        """Split the trace, execute the plan, and collect metrics.

        ``options`` are :class:`~repro.runtime.session.RunOptions`
        fields, forwarded untouched.
        """
        return self._session.execute(
            source_rows, splitter, duration_sec, **options
        )

    def run_streaming(
        self,
        source_rows: Mapping[str, Sequence[dict]],
        splitter: Splitter,
        duration_sec: float,
        **options,
    ) -> SimulationResult:
        """:meth:`run` with ``streaming=True``: one epoch at a time with
        bounded memory.  Outputs, CPU charges, and network counts
        accumulate to exactly the one-shot totals, while
        :attr:`SimulationResult.timeline` gains the per-epoch series —
        see :class:`~repro.runtime.session.RunOptions` for every option.
        """
        return self._session.execute(
            source_rows, splitter, duration_sec, streaming=True, **options
        )
