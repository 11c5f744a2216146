"""The unified epoch driver: one loop for one-shot and streaming runs.

:class:`ExecutionSession` executes a :class:`~repro.distopt.plan_ir.DistributedPlan`
over source batches, always epoch by epoch: a streaming run slices the
sources on the temporal column and steps once per epoch (plus a final
flush draining every buffer), while a one-shot run is the *degenerate
single-epoch case* — the whole trace is one slice whose watermark jumps
straight to infinity, so every buffer drains in the first step and the
flush is a no-op.  Splitting, ingest, watermark plumbing, and cost
charging therefore exist in exactly one place; backpressure and fault
injection instrument that one loop through the
:class:`~repro.runtime.flowcontrol.IngestController` seam between the
splitter and the hosts, and adaptive rebalancing through the
:class:`~repro.runtime.rebalance.RebalanceController`'s ``before_step``
and ``after_step`` calls.  The switches of a run are declared, documented
and validated once, by :class:`RunOptions`.

Operators come pre-compiled from the :class:`~repro.runtime.backend.EngineBackend`
(at session construction, never per batch), and every batch from the
source door to a read
of a query's rows (:class:`DeliveredRows`) is a
:class:`~repro.engine.columnar.ColumnBatch`; all accounting flows
through the :class:`~repro.runtime.metrics.MetricsRecorder`.

*Where* operators run is a second seam: a :class:`StepExecutor` receives
each step's source deliveries and steps every non-source node, while the
session keeps splitting, flow control, and **all** cost charging —
charges are replayed from the executor's per-node counters in plan
order, so the in-process executor and the multiprocess
:class:`~repro.runtime.parallel.ParallelExecutor` produce identical
accounting by construction.  Both step their nodes through one
:class:`NodeTable`: the in-process executor owns the whole plan's, each
forked worker its hosts' share.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from ..distopt.plan_ir import DistKind, DistNode, DistributedPlan, Variant
from ..engine.aggregates import partial_row_width
from ..engine.columnar import ColumnBatch, Row
from ..engine.sketches import node_summary_bytes
from ..engine.streaming import StreamingNode, Watermark, share_releases
from ..plan.dag import QueryDag
from ..traces.generator import slice_by_epoch
from .backend import EngineBackend
from .flowcontrol import FaultPlan, QueuePolicy, create_ingest_controller
from .metrics import ChargePlan, HostFlowStats, MetricsRecorder, Timeline
from .rebalance import RebalanceController, RebalanceLog, RebalancePolicy

if TYPE_CHECKING:
    from ..cluster.host import Host
    from ..cluster.network import NetworkMeter
    from ..cluster.splitter import Splitter

#: Epoch key of the single slice a one-shot run pushes through the loop.
_WHOLE_TRACE = object()

#: Valid values for ``RunOptions.execution``.
EXECUTION_MODES = ("inprocess", "parallel")

#: Per SOURCE node: the batch the ingest layer delivered this step and
#: the watermark bound the controller derived for it.
SourceFeed = Dict[str, Tuple[ColumnBatch, object]]


@dataclass(frozen=True)
class RunOptions:
    """How one run executes — declared here and nowhere else.

    :meth:`ExecutionSession.execute` builds this from its keywords, and
    every layer above it (``ClusterSimulator.run``/``run_streaming``,
    ``run_configuration``, ``sweep_hosts``, ``overload_sweep``, the CLI)
    forwards ``**options`` untouched, so an unknown keyword is one
    ``TypeError`` and a bad combination one ``ValueError`` — both raised
    below, whichever layer was called.

    ``streaming`` slices each source by ``epoch_column`` and steps once
    per epoch, keeping per-node operator state alive across steps;
    per-epoch accounting buckets feed ``SimulationResult.timeline`` and
    ``peak_batch_rows``.  Without it the whole trace is a single slice
    and no buckets open, so the result carries totals only.  Totals —
    outputs, CPU per host and category, network per link — are the same
    either way.  Sources must arrive sorted by the epoch column for
    round-robin splitting to reproduce the one-shot assignment
    (generated traces are); hash splitting is order-independent.

    ``queue_policy`` bounds each host's per-epoch ingest
    (:class:`~repro.runtime.flowcontrol.QueuePolicy`: ``block`` defers
    losslessly, ``drop-newest`` and ``drop-oldest`` shed into
    ``SimulationResult.flow_stats``) and ``faults`` injects host
    misbehaviour (:class:`~repro.runtime.flowcontrol.FaultPlan`).  With
    neither set delivery is unbounded and reliable.

    ``execution`` selects where operators run: ``"inprocess"`` steps
    every node in this process, ``"parallel"`` forks one worker per
    simulated host (capped at ``workers``) and routes per-epoch
    partitions to them (:mod:`repro.runtime.parallel`).  Outputs and
    accounting are identical either way; when parallel execution is
    impossible (single host, one worker, no ``fork``) the run falls back
    in-process, keeps the reason as ``SimulationResult.execution_fallback``
    (``summary()`` prints it) and records it as an ``execution`` event.

    ``rebalance`` activates adaptive repartitioning
    (:class:`~repro.runtime.rebalance.RebalancePolicy`): hot partitions
    migrate to cooler hosts at epoch boundaries.  Migration changes only
    which host executes (and is charged for) the affected nodes — query
    outputs stay byte-identical to the static run; the decision trail
    lands in ``SimulationResult.rebalance``.

    Flow control, faults and rebalancing meter against epochs, so all
    three require ``streaming``; ``leave``/``join`` membership faults
    additionally require ``rebalance``.
    """

    streaming: bool = False
    epoch_column: str = "time"
    queue_policy: Optional[QueuePolicy] = None
    faults: Optional[FaultPlan] = None
    execution: str = "inprocess"
    workers: Optional[int] = None
    rebalance: Optional[RebalancePolicy] = None

    def __post_init__(self):
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.streaming and (
            self.queue_policy is not None
            or self.faults
            or self.rebalance is not None
        ):
            raise ValueError(
                "flow control, fault injection and adaptive rebalancing "
                "require streaming execution"
            )
        if self.faults and self.faults.membership and self.rebalance is None:
            raise ValueError(
                "host leave/join faults require a rebalance policy "
                "(rebalance=RebalancePolicy(...)) to migrate the "
                "affected partitions"
            )


@dataclass
class StepOutcome:
    """What a :class:`StepExecutor` reports back for one epoch step.

    The session replays all cost charges from these counters (in plan
    topological order, the same sub-order per node as the historical
    inline charging), so CPU/network accounting is identical regardless
    of *where* the operators actually ran.
    """

    #: Output rows per non-source node (sources are parent-side).
    out_lens: Dict[str, int]
    #: Operator wall-clock seconds per non-source node.
    walls: Dict[str, float]
    #: OS process that stepped each node; empty means "the driver".
    pids: Dict[str, int]
    #: Output batches for the nodes the session asked to be returned
    #: (the plan's delivery nodes).
    returns: Dict[str, ColumnBatch]
    #: Largest buffer resident inside any streaming node after the step.
    buffered_rows: int


class StepExecutor:
    """Where operators run: the seam between routing and execution.

    The session owns splitting, ingest/flow control, watermark bounds for
    sources, and *all* metric charging; an executor owns the stateful
    streaming nodes and steps them.  One executor instance lives for one
    run (buffers persist across its steps), and every node steps in the
    process it started in for the whole run, whatever host a migration
    charges it to."""

    #: Mode label recorded in the event trace ("inprocess"/"parallel").
    mode: str
    #: Why a run asked to be parallel steps in-process instead; None when
    #: it runs where it was asked to.
    fallback: Optional[str] = None

    def run_step(self, flush: bool, sources: SourceFeed) -> StepOutcome:
        raise NotImplementedError

    def buffered(self, node_ids: Sequence[str]) -> Dict[str, int]:
        """Rows buffered in each named node now (0 for sources).

        A partition migration prices its state handoff from these counts;
        the nodes themselves never move.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (worker processes)."""


class NodeTable:
    """The stateful streaming nodes one process owns, and the loop that
    steps them.

    The in-process executor owns every node of the plan in one table; a
    parallel worker owns its hosts' share in its own.  The table is built
    once per run.  ``outputs`` and ``watermarks`` hold the current step's
    per-node results, including those a worker received from other
    workers.  Sibling aggregates the table owns — same input node, same
    temporal expression — share one buffer and release decision
    (:func:`~repro.engine.streaming.share_releases`); every node steps
    exactly once per step, which that sharing relies on.
    """

    def __init__(
        self,
        backend: EngineBackend,
        epoch_column: str,
        nodes: Sequence[DistNode],
    ):
        self._epoch_column = epoch_column
        self.nodes: Dict[str, StreamingNode] = {
            node.node_id: backend.streaming_node(node)
            for node in nodes
            if node.kind is not DistKind.SOURCE
        }
        share_releases(
            [
                (node.inputs[0], self.nodes[node.node_id])
                for node in nodes
                if len(node.inputs) == 1 and node.kind is not DistKind.SOURCE
            ]
        )
        self.outputs: Dict[str, ColumnBatch] = {}
        self.watermarks: Dict[str, Watermark] = {}

    def step(
        self,
        nodes: Sequence[DistNode],
        flush: bool,
        sources: SourceFeed,
        out_lens: Dict[str, int],
        walls: Dict[str, float],
    ) -> None:
        """Step ``nodes`` in plan order, recording each non-source node's
        output rows and operator wall seconds into ``out_lens``/``walls``.
        A node's inputs must already be in ``outputs``."""
        outputs = self.outputs
        watermarks = self.watermarks
        stepped = self.nodes
        for node in nodes:
            node_id = node.node_id
            snode = stepped.get(node_id)
            if snode is None:  # a source
                batch, bound = sources[node_id]
                outputs[node_id] = batch
                watermarks[node_id] = {self._epoch_column: bound}
                continue
            inputs = [outputs[child_id] for child_id in node.inputs]
            input_watermarks = [watermarks[child_id] for child_id in node.inputs]
            started = time.perf_counter()
            result, watermark = snode.step(inputs, input_watermarks, flush)
            walls[node_id] = time.perf_counter() - started
            watermarks[node_id] = watermark
            outputs[node_id] = result
            out_lens[node_id] = result.length

    def clear(self) -> None:
        """Forget the step's outputs; buffers live on."""
        self.outputs.clear()
        self.watermarks.clear()

    def buffered_rows(self) -> int:
        """The largest buffer resident in any owned node."""
        return max(
            (snode.buffered_rows() for snode in self.nodes.values()), default=0
        )

    def buffered(self, node_ids) -> Dict[str, int]:
        """Buffered rows per named node (0 for sources)."""
        return {
            node_id: (
                self.nodes[node_id].buffered_rows()
                if node_id in self.nodes
                else 0
            )
            for node_id in node_ids
        }


class InProcessExecutor(StepExecutor):
    """Runs every node in the driver process."""

    mode = "inprocess"

    def __init__(
        self,
        backend: EngineBackend,
        order: Sequence[DistNode],
        epoch_column: str,
        return_ids: Set[str],
        fallback: Optional[str] = None,
    ):
        self._order = list(order)
        self._return_ids = set(return_ids)
        self.fallback = fallback
        # Streaming wrappers hold buffers across steps: fresh per run.
        self._table = NodeTable(backend, epoch_column, self._order)

    def buffered(self, node_ids: Sequence[str]) -> Dict[str, int]:
        return self._table.buffered(node_ids)

    def run_step(self, flush: bool, sources: SourceFeed) -> StepOutcome:
        table = self._table
        out_lens: Dict[str, int] = {}
        walls: Dict[str, float] = {}
        table.step(self._order, flush, sources, out_lens, walls)
        returns = {node_id: table.outputs[node_id] for node_id in self._return_ids}
        table.clear()
        return StepOutcome(
            out_lens=out_lens,
            walls=walls,
            pids={},
            returns=returns,
            buffered_rows=table.buffered_rows(),
        )


def _source_reads(
    dag: QueryDag, plan: DistributedPlan
) -> Dict[str, Optional[FrozenSet[str]]]:
    """Per source stream, the attributes the plan's live nodes read
    directly off its rows — None when every column is needed (the raw
    stream is itself delivered, or passes through a UNION).

    Reads further up the DAG need no separate walk: a derived column's
    lineage only mentions attributes its producer already reads here.
    """
    reads: Dict[str, Optional[FrozenSet[str]]] = {
        source.name: None if source.name in plan.delivery else frozenset()
        for source in dag.sources()
    }
    for query in {node.query for node in plan.topological()} - {None}:
        analyzed = dag.node(query)
        for position, name in enumerate(analyzed.inputs):
            if reads.get(name) is None:
                continue
            attrs = analyzed.input_attrs(position)
            reads[name] = None if attrs is None else reads[name] | attrs
    return reads


class DeliveredRows(Mapping[str, List[Row]]):
    """Query name -> delivered rows, built from the step batches on read.

    The run loop keeps each step's delivered ``ColumnBatch``, never
    concatenated (steps may differ in dtype).  A query's rows are the
    batches' ``to_rows()`` in step order, built on every read.  The
    result holds the list read last, and only until the next read: that
    read drops it if it still equals the batches, or keeps it for good
    if the caller changed it (a NaN counts as a change).  Row dicts cost
    several times their columns' bytes, so a caller reading the queries
    one after another holds one query's rows at a time, while an edit
    made to a delivered list before the next read is what every later
    read returns.  Two reads of an unchanged query return equal, distinct
    lists; keep the list to read it twice.
    """

    def __init__(self, batches: Dict[str, List[ColumnBatch]]):
        #: Per query, the non-empty batches its delivery node returned.
        self.batches = batches
        #: Lists changed by the caller, returned by every later read.
        self._edited: Dict[str, List[Row]] = {}
        #: ``(query, rows)`` of the list read last, until the next read.
        self._last: Optional[Tuple[str, List[Row]]] = None

    def __getitem__(self, name: str) -> List[Row]:
        if self._last is not None:
            last, rows = self._last
            self._last = None
            if not self._unchanged(last, rows):
                self._edited[last] = rows
        rows = self._edited.get(name)
        if rows is None:
            rows = [row for batch in self.batches[name] for row in batch.to_rows()]
            self._last = (name, rows)
        return rows

    def _unchanged(self, name: str, rows: List[Row]) -> bool:
        """Whether ``rows`` equal the rows of ``name``'s batches, compared
        batch by batch so that no second whole list is built."""
        start = 0
        for batch in self.batches[name]:
            stop = start + len(batch)
            if rows[start:stop] != batch.to_rows():
                return False
            start = stop
        return start == len(rows)

    def __iter__(self):
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    def row_count(self, name: Optional[str] = None) -> int:
        """Rows of ``name`` (all queries if None), from batch lengths alone."""
        names = self.batches if name is None else (name,)
        return sum(len(batch) for n in names for batch in self.batches[n])


def _node_label(node: DistNode) -> str:
    """A human-readable operator label for compile-event reporting."""
    if node.kind is DistKind.MERGE:
        return "merge"
    if node.kind is DistKind.NULLPAD:
        return f"nullpad[{node.pad_side}]:{node.query}"
    return f"{node.query}/{node.variant.value}"


@dataclass
class SimulationResult:
    """Everything one run produces: loads, traffic, and query outputs."""

    hosts: List["Host"]
    network: "NetworkMeter"
    # Query name -> delivered rows, built from the kept column batches on
    # read; the result keeps only the list read last, until the next read,
    # and lists the caller changed (see DeliveredRows).
    outputs: DeliveredRows
    duration_sec: float
    aggregator: int
    splitter_description: str = ""
    node_output_counts: Dict[str, int] = field(default_factory=dict)
    # Streaming-mode extras: per-epoch series and the largest batch that
    # was ever resident at a node boundary.  None for one-shot runs.
    timeline: Optional[Timeline] = None
    peak_batch_rows: Optional[int] = None
    # Per-node observability counters from the MetricsRecorder.
    node_stats: Dict[str, object] = field(default_factory=dict)
    # Always empty: every plan node compiles to a kernel.  Kept only
    # because the frozen end-to-end harness (benchmarks/e2e/harness.py)
    # still reads it.
    fallback_nodes: Dict[str, str] = field(default_factory=dict)
    # The optimizer-chosen aggregation variant per OP plan node
    # (node id -> "full"/"sub"/"super"/"sketch_sub"/"sketch_super").
    node_variants: Dict[str, str] = field(default_factory=dict)
    # Per-host ingest-queue accounting; populated only when a streaming
    # run had flow control or fault injection active.
    flow_stats: Dict[int, HostFlowStats] = field(default_factory=dict)
    # How operators actually executed: "inprocess" or "parallel".  A run
    # requested as parallel that fell back reports "inprocess" here, and
    # why in ``execution_fallback`` (None when it ran as asked).
    execution: str = "inprocess"
    execution_fallback: Optional[str] = None
    # What the adaptive rebalancer observed and did; None unless the run
    # passed ``rebalance=RebalancePolicy(...)``.
    rebalance: Optional[RebalanceLog] = None
    # Lineage pruning per source stream: (kept, dropped) column
    # names.  Dropped columns are read by no plan node, the splitter or
    # the epoch slicer, and never entered the run.
    source_columns: Dict[str, Tuple[List[str], List[str]]] = field(
        default_factory=dict
    )

    def rows_dropped(self, host: int) -> int:
        """Total rows the flow-control layer dropped for ``host``."""
        stats = self.flow_stats.get(host)
        return stats.total_dropped if stats is not None else 0

    # -- the paper's metrics -------------------------------------------------

    def cpu_load(self, host: int) -> float:
        return self.hosts[host].load_percent(self.duration_sec)

    def aggregator_cpu_load(self) -> float:
        """Figure 8/10/13 metric: CPU load on the aggregator node (%)."""
        return self.cpu_load(self.aggregator)

    def aggregator_network_load(self) -> float:
        """Figure 9/11/14 metric: packets/sec received by the aggregator."""
        return self.network.tuples_per_sec(self.aggregator, self.duration_sec)

    def leaf_cpu_loads(self) -> List[float]:
        """Per-host loads for the non-aggregator hosts."""
        return [
            self.cpu_load(host.index)
            for host in self.hosts
            if host.index != self.aggregator
        ]

    def mean_leaf_cpu_load(self) -> float:
        """Average load across the non-aggregator hosts — the §6.1
        leaf-load series.  On a single-host cluster the one host plays
        both roles, so its load is reported."""
        loads = self.leaf_cpu_loads()
        if not loads:
            return self.cpu_load(self.aggregator)
        return sum(loads) / len(loads)

    def mean_host_cpu_load(self) -> float:
        """Average load across *all* hosts, aggregator included.  For the
        paper's leaf-only series use :meth:`mean_leaf_cpu_load`."""
        loads = [self.cpu_load(host.index) for host in self.hosts]
        return sum(loads) / len(loads)

    def summary(self) -> str:
        lines = [f"duration {self.duration_sec:.0f}s, splitter: {self.splitter_description}"]
        for host in self.hosts:
            role = "aggregator" if host.index == self.aggregator else "leaf"
            net = self.network.tuples_per_sec(host.index, self.duration_sec)
            lines.append(
                f"host {host.index} ({role}): CPU {self.cpu_load(host.index):6.1f}%  "
                f"net {net:10.1f} tuples/s"
            )
        execution = f"execution {self.execution}"
        if self.execution_fallback is not None:
            execution += f" (parallel fell back: {self.execution_fallback})"
        lines.append(execution)
        for stream, (kept, dropped) in sorted(self.source_columns.items()):
            lines.append(
                f"source {stream}: reads {', '.join(kept)}; "
                f"pruned {', '.join(dropped) or 'nothing'}"
            )
        for name in sorted(self.outputs):
            lines.append(f"delivered {name}: {self.outputs.row_count(name)} rows")
        return "\n".join(lines)


class ExecutionSession:
    """Drives a compiled plan over source batches, epoch by epoch."""

    def __init__(
        self,
        dag: QueryDag,
        plan: DistributedPlan,
        backend: EngineBackend,
        recorder: MetricsRecorder,
    ):
        self._dag = dag
        self._plan = plan
        self._backend = backend
        self._recorder = recorder
        self._width_cache: Dict[str, float] = {}
        # Compile every live plan node up front, never in the execution
        # loop.  Each node's label is remembered so every run can replay
        # it into the (reset) MetricsRecorder.
        self._compiled_info: List[tuple] = []
        self._node_variants: Dict[str, str] = {}
        for node in plan.topological():
            if node.kind is DistKind.SOURCE:
                continue
            backend.compile_node(node)
            variant = node.variant.value if node.kind is DistKind.OP else None
            self._compiled_info.append(
                (node.node_id, _node_label(node), node.host, variant)
            )
            if variant is not None:
                self._node_variants[node.node_id] = variant
        self._source_reads = _source_reads(dag, plan)

    @property
    def backend(self) -> EngineBackend:
        return self._backend

    @property
    def recorder(self) -> MetricsRecorder:
        return self._recorder

    def execute(
        self,
        source_rows: Mapping[str, Sequence[dict]],
        splitter: "Splitter",
        duration_sec: float,
        **options,
    ) -> SimulationResult:
        """Split, execute, and meter the plan; one epoch per step.

        ``options`` are the fields of :class:`RunOptions`, which
        documents and validates them.  A streaming run steps once per
        epoch slice, a one-shot run once over the whole trace; either
        way a final flush step drains every buffer.
        """
        options = RunOptions(**options)
        self._check_splitter(splitter)
        streaming, epoch_column = options.streaming, options.epoch_column
        faults = options.faults
        if faults:
            faults.validate(self._plan.num_hosts)
        recorder = self._recorder
        backend = self._backend
        recorder.reset()
        for node_id, label, host, variant in self._compiled_info:
            recorder.record_compiled_node(node_id, label, host=host, variant=variant)
        # The splitter's key columns and the epoch slicer's column ride
        # along with what the plan reads; every other column stops here.
        partitioning = getattr(splitter, "partitioning_set", None)
        routing = {epoch_column}
        if partitioning is not None:
            routing |= partitioning.attrs()
        prepared = {
            stream: self._prune(stream, backend.prepare(rows), routing)
            for stream, rows in source_rows.items()
        }
        if streaming:
            slices: Dict[str, Dict[object, ColumnBatch]] = {
                stream: dict(slice_by_epoch(batch, epoch_column))
                for stream, batch in prepared.items()
            }
            epochs: List[object] = sorted(
                {epoch for per_stream in slices.values() for epoch in per_stream}
            )
        else:
            slices = {
                stream: {_WHOLE_TRACE: batch}
                for stream, batch in prepared.items()
            }
            epochs = [_WHOLE_TRACE]
        order = self._plan.topological()
        source_nodes = [node for node in order if node.kind is DistKind.SOURCE]
        delivered = DeliveredRows({name: [] for name in self._plan.delivery})
        charges = ChargePlan(
            recorder,
            order,
            {
                node.node_id: self._dag.node(node.query).kind
                for node in order
                if node.kind is DistKind.OP
            },
            {node.node_id: self._output_width(node) for node in order},
        )
        offsets: Dict[str, int] = {stream: 0 for stream in slices}
        no_rows = [ColumnBatch({}, 0)] * self._plan.num_partitions
        # The rebalancer is the only writer of the run's partition
        # directory, which the ingest queues route by and charge replay
        # reads each node's host from.
        rebalancer = RebalanceController(
            self._plan,
            options.rebalance,
            recorder,
            self._output_width,
            faults=faults,
            dag=self._dag,
            partitioning=partitioning,
        )
        directory = rebalancer.directory
        # The ingest controller sits between the splitter and the hosts:
        # pass-through (historical behaviour) unless flow control or
        # fault injection was requested.
        controller = create_ingest_controller(
            self._plan, recorder, options.queue_policy, faults, directory,
        )
        # Last, so nothing above can raise with a worker pool open.
        executor = self._create_executor(options, order)
        peak = 0
        try:
            # One step per epoch, plus a final flush draining every buffer
            # (its charges fold into the last epoch's bucket).
            for index in range(len(epochs) + 1):
                flush = index == len(epochs)
                if flush:
                    recorder.begin_flush()
                    epoch: object = None
                    next_bound: object = math.inf
                    partitions = {stream: no_rows for stream in slices}
                else:
                    epoch = epochs[index]
                    next_bound = (
                        epochs[index + 1] if index + 1 < len(epochs) else math.inf
                    )
                    if streaming:
                        recorder.begin_epoch(epoch)
                    rebalancer.before_step(index, executor)
                    partitions = {}
                    for stream, per_epoch in slices.items():
                        piece = per_epoch.get(epoch)
                        if piece is None or len(piece) == 0:
                            partitions[stream] = no_rows
                            continue
                        peak = max(peak, len(piece))
                        partitions[stream] = backend.split(
                            piece, splitter, offsets[stream]
                        )
                accepted = controller.begin_step(index, epoch, partitions, flush)
                if not flush:
                    # The round-robin cursor advances by what the ingest layer
                    # *accepted*, not by what the splitter sent — rows refused
                    # at admission or lost to a skip fault never consume a slot.
                    for stream, count in accepted.items():
                        offsets[stream] += count
                # The ingest layer's deliveries for this step, routed to the
                # executor; the controller also pins each source watermark
                # while it withholds older rows.
                sources: SourceFeed = {}
                for node in source_nodes:
                    (partition,) = node.partitions
                    sources[node.node_id] = (
                        controller.batch(node.stream, partition),
                        controller.watermark_bound(
                            node.stream, partition, next_bound
                        ),
                    )
                outcome = executor.run_step(flush, sources)
                # Charge replay: every cost of the step, from the
                # executor's counters, whichever process ran the nodes.  A
                # migration changes which host is charged (and metered
                # for transfers), never the dataflow.
                lens = dict(outcome.out_lens)
                for node_id, (batch, _) in sources.items():
                    lens[node_id] = len(batch)
                peak = max(
                    peak,
                    charges.replay(
                        lens, directory.node_host, outcome.walls, outcome.pids
                    ),
                    outcome.buffered_rows,
                    controller.resident_rows(),
                )
                # Delivery: the run loop keeps the step's batch; rows are
                # built on each read of ``result.outputs[name]``.
                for name, node_id in self._plan.delivery.items():
                    batch = outcome.returns[node_id]
                    if len(batch):
                        delivered.batches[name].append(batch)
                rebalancer.after_step(index, sources)
        finally:
            executor.close()
        counts = charges.finish()
        # Snapshot the mutable accounting state: the recorder resets its
        # Host and NetworkMeter objects *in place* at the top of the next
        # run, so handing out the live references would silently retarget
        # every previously returned result (and make cross-run comparisons
        # tautological).
        return SimulationResult(
            hosts=copy.deepcopy(recorder.hosts),
            network=copy.deepcopy(recorder.network),
            outputs=delivered,
            duration_sec=duration_sec,
            aggregator=self._plan.aggregator,
            splitter_description=splitter.describe(),
            node_output_counts=counts,
            timeline=recorder.build_timeline(epochs) if streaming else None,
            peak_batch_rows=peak if streaming else None,
            node_stats=dict(recorder.node_stats),
            node_variants=dict(self._node_variants),
            flow_stats=dict(recorder.flow_stats),
            execution=executor.mode,
            execution_fallback=executor.fallback,
            rebalance=rebalancer.log,
            source_columns=dict(recorder.source_columns),
        )

    # -- internals --------------------------------------------------------------

    def _prune(
        self, stream: str, batch: ColumnBatch, routing: Set[str]
    ) -> ColumnBatch:
        """Drop the source columns nothing downstream reads (lineage
        pruning), so slicing, splitting, ingest queues and the transport
        to workers never carry them."""
        reads = self._source_reads.get(stream)
        if reads is None:
            return batch
        kept = [name for name in batch.columns if name in reads or name in routing]
        dropped = [name for name in batch.columns if name not in kept]
        self._recorder.record_source_columns(stream, kept, dropped)
        return ColumnBatch({name: batch.columns[name] for name in kept}, len(batch))

    def _create_executor(
        self, options: RunOptions, order: Sequence[DistNode]
    ) -> StepExecutor:
        """Build this run's executor, recording the mode (and any
        parallel-to-inprocess fallback reason) in the event trace; the
        executor keeps the reason for the run's result."""
        recorder = self._recorder
        epoch_column = options.epoch_column
        return_ids = set(self._plan.delivery.values())
        fallback = None
        if options.execution == "parallel":
            from .parallel import ParallelExecutor, ParallelUnavailable

            try:
                executor = ParallelExecutor(
                    self._plan, self._backend, order, epoch_column,
                    return_ids, options.workers,
                )
            except ParallelUnavailable as unavailable:
                fallback = str(unavailable)
            else:
                recorder.record_execution_mode(
                    "parallel", workers=executor.worker_count
                )
                return executor
        recorder.record_execution_mode("inprocess", reason=fallback)
        return InProcessExecutor(
            self._backend, order, epoch_column, return_ids, fallback
        )

    def _check_splitter(self, splitter: "Splitter") -> None:
        if splitter.num_partitions != self._plan.num_partitions:
            raise ValueError(
                f"splitter produces {splitter.num_partitions} partitions but the "
                f"plan expects {self._plan.num_partitions}"
            )

    # -- output widths -----------------------------------------------------------

    def _output_width(self, node: DistNode) -> float:
        """Approximate bytes per tuple of a dist node's output stream."""
        cached = self._width_cache.get(node.node_id)
        if cached is not None:
            return cached
        width = self._compute_width(node)
        self._width_cache[node.node_id] = width
        return width

    def _compute_width(self, node: DistNode) -> float:
        if node.kind is DistKind.SOURCE:
            return float(self._dag.node(node.stream).schema.tuple_width())
        if node.kind is DistKind.MERGE:
            widths = [self._output_width(self._plan.node(c)) for c in node.inputs]
            return max(widths) if widths else 0.0
        analyzed = self._dag.node(node.query)
        if node.kind is DistKind.NULLPAD:
            return float(analyzed.schema.tuple_width())
        if node.variant is Variant.SUB:
            return float(partial_row_width(analyzed))
        if node.variant is Variant.SKETCH_SUB:
            # One summary row per pane per host: fixed-size sketch grids
            # plus the worst-case candidate list, independent of group
            # cardinality — the whole point of the sketch variant.
            return float(node_summary_bytes(analyzed))
        return float(analyzed.schema.tuple_width())
