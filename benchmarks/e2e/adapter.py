"""The benchmark's only door into ``src/``.

Every call the benchmark makes into the program goes through this file,
using public names of ``repro``, ``repro.runtime``, ``repro.cluster``,
``repro.traces`` and ``repro.workloads`` only — so a refactor that moves
an API needs a follow-up here and nowhere else in the benchmark.

The traced pass observes the program from outside: forwarding proxies
around the :class:`EngineBackend` and the :class:`MetricsRecorder`
handed to ``ExecutionSession(dag, plan, backend, recorder)`` open a span
at each layer boundary.  No file under ``src/`` knows it is measured.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import (  # noqa: E402
    Catalog,
    DistributedOptimizer,
    PartitioningSet,
    Placement,
    QueryDag,
    batches_equal,
    choose_partitioning,
    run_centralized,
    tcp_schema,
)
from repro.cluster import (  # noqa: E402
    DEFAULT_COSTS,
    HashSplitter,
    Host,
    NetworkMeter,
    RoundRobinSplitter,
)
from repro.runtime import (  # noqa: E402
    ExecutionSession,
    MetricsRecorder,
    ParallelExecutor,
    create_backend,
)
from repro.traces import (  # noqa: E402
    ATTACK_PATTERN,
    Trace,
    TraceConfig,
    generate_trace,
    slice_by_epoch,
)
from repro.workloads.experiments import (  # noqa: E402
    experiment1_trace_config,
    experiment2_trace_config,
    experiment3_trace_config,
    experiment_capacity,
)
from repro.workloads.queries import (  # noqa: E402
    APPROX_HEAVY_SQL,
    COMPLEX_EPOCH_SECONDS,
    COMPLEX_SQL,
    SUBNET_JITTER_SQL,
    SUSPICIOUS_FLOWS_SQL,
)

from tracing import END as SPAN_END, Tracer, span_factory  # noqa: E402

NUM_HOSTS = 4
PARTITIONS_PER_HOST = 2
EPOCH_COLUMN = "time"

#: ``Workload.partitioning`` value meaning "hash on whatever
#: ``choose_partitioning`` recommends".
CHOSEN = "chosen"

# -- the paper's GSQL texts, as the program ships them -------------------------

# (``SUSPICIOUS_FLOWS_SQL``, ``SUBNET_JITTER_SQL`` and ``APPROX_HEAVY_SQL``
# are used under their own names.)
SUSPICIOUS_PARAMS = {"#PATTERN#": ATTACK_PATTERN}
COMPLEX_2S_SQL = COMPLEX_SQL.replace("time/60", f"time/{COMPLEX_EPOCH_SECONDS}")

_TRACE_CONFIGS = {
    1: experiment1_trace_config,
    2: experiment2_trace_config,
    3: experiment3_trace_config,
}


# -- inputs --------------------------------------------------------------------


def paper_trace(experiment: int, rate: int, seed: int, tail_alpha: float) -> Trace:
    """One of the paper's three experiment traces at ``rate`` rows/s, with
    the flow-size tail set by the benchmark."""
    config = _TRACE_CONFIGS[experiment](seed)
    return generate_trace(replace(config, rate=rate, heavy_tail_alpha=tail_alpha))


def default_trace(
    rate: int, seed: int, tail_alpha: float, mean_flow_packets: float
) -> Trace:
    return generate_trace(
        TraceConfig(
            rate=rate,
            seed=seed,
            heavy_tail_alpha=tail_alpha,
            mean_flow_packets=mean_flow_packets,
        )
    )


def trace_from_columns(columns: Dict[str, object], epochs: int, seed: int) -> Trace:
    """Wrap benchmark-generated column arrays as the program's trace."""
    rows = len(next(iter(columns.values())))
    return Trace(
        columns=columns,
        config=TraceConfig(duration=epochs, rate=rows // epochs, seed=seed),
        duration_sec=float(epochs),
    )


# -- measurement hooks -----------------------------------------------------------


class EpochClock(MetricsRecorder):
    """The recorder every run uses: it timestamps the epoch marks.

    About 21 ``perf_counter`` calls per streaming run; this is part of
    the untraced measurement.
    """

    def __init__(self, hosts, network, costs):
        super().__init__(hosts, network, costs)
        self.marks: List[float] = []

    def begin_epoch(self, epoch) -> None:
        self.marks.append(time.perf_counter())
        super().begin_epoch(epoch)

    def begin_flush(self) -> None:
        self.marks.append(time.perf_counter())
        super().begin_flush()


class TracedRecorder(EpochClock):
    """Counts every charge call the session replays into the recorder and
    covers each step's burst of them with one ``runtime.metrics.replay``
    span (one span per call would cost more than the calls themselves).

    A burst ends when anything else is traced: the span count moved.
    """

    def __init__(self, hosts, network, costs, tracer: Tracer):
        super().__init__(hosts, network, costs)
        self._tracer = tracer
        self._burst: list = []
        self._spans_seen = -1
        self.calls = 0

    def _before_charge(self) -> None:
        self.calls += 1
        spans = self._tracer.spans
        if len(spans) != self._spans_seen:
            self._burst = self._tracer.leaf("runtime.metrics.replay")
            self._spans_seen = len(spans)

    def charge_local_ingest(self, host, tuples) -> None:
        self._before_charge()
        super().charge_local_ingest(host, tuples)
        self._burst[SPAN_END] = time.perf_counter()

    def record_transfer(self, src_host, dst_host, tuples, width) -> None:
        self._before_charge()
        super().record_transfer(src_host, dst_host, tuples, width)
        self._burst[SPAN_END] = time.perf_counter()

    def charge_processing(self, node, analyzed_kind, rows_in, rows_out, host=None):
        self._before_charge()
        super().charge_processing(node, analyzed_kind, rows_in, rows_out, host=host)
        self._burst[SPAN_END] = time.perf_counter()

    def record_node_step(self, *args, **kwargs) -> None:
        self._before_charge()
        super().record_node_step(*args, **kwargs)
        self._burst[SPAN_END] = time.perf_counter()


class _TracedNode:
    """Forwards to a streaming node, opening a span around ``step``."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        # Asked of every node after every step: skip the __getattr__ detour.
        self.buffered_rows = inner.buffered_rows

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def step(self, inputs, watermarks, flush):
        self._tracer.begin(self._name)
        try:
            return self._inner.step(inputs, watermarks, flush)
        finally:
            self._tracer.end()


class _TracedBackend:
    """Forwards to an engine backend, opening spans around ``prepare``,
    ``split`` and every streaming node's ``step``."""

    def __init__(self, inner, tracer: Tracer, layers: Dict[str, str]):
        self._inner = inner
        self._tracer = tracer
        self._layers = layers

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def prepare(self, rows):
        with self._tracer.span("runtime.backend.prepare"):
            return self._inner.prepare(rows)

    def split(self, batch, splitter, offset):
        self._tracer.begin("runtime.backend.split")
        try:
            return self._inner.split(batch, splitter, offset)
        finally:
            self._tracer.end()

    def streaming_node(self, node):
        return _TracedNode(
            self._inner.streaming_node(node),
            self._tracer,
            self._layers[node.node_id],
        )


def _engine_layer(dag: QueryDag, node) -> Optional[str]:
    """The ``engine.*`` layer a plan node's operator belongs to (None for
    sources): plan-node kind, and for aggregations the variant."""
    kind = node.kind.name
    if kind == "SOURCE":
        return None
    if kind == "MERGE":
        return "engine.merge"
    if kind == "NULLPAD":
        return "engine.join"
    analyzed = dag.node(node.query).kind.name
    if analyzed == "AGGREGATION":
        return _AGGREGATION_LAYERS[node.variant.value]
    return {
        "SELECTION": "engine.select",
        "JOIN": "engine.join",
        "UNION": "engine.merge",
    }[analyzed]


_AGGREGATION_LAYERS = {
    "full": "engine.agg_full",
    "sub": "engine.agg_sub",
    "super": "engine.agg_super",
    "sketch_sub": "engine.sketch_sub",
    "sketch_super": "engine.sketch_super",
}


# -- deploy and run ----------------------------------------------------------------


@dataclass
class Deployment:
    """One compiled deployment of a workload's script on the cluster."""

    dag: QueryDag
    plan: object
    session: ExecutionSession
    recorder: EpochClock
    splitter: object
    layers: Dict[str, str]  # plan node id -> engine.* layer
    queries: int
    candidates: int
    plan_nodes: int
    delivered: Tuple[str, ...]


def deploy(
    script: str,
    params: Optional[dict],
    partitioning,
    deliver: Optional[Tuple[str, ...]],
    trace: Trace,
    capacity_experiment: int,
    tracer: Optional[Tracer] = None,
    centralized: bool = False,
) -> Deployment:
    """The front end: GSQL text in, compiled session out.

    ``partitioning`` is a tuple of hash expressions, None for round-robin,
    or :data:`CHOSEN`.  ``centralized`` deploys the same script on one
    host with one partition — the reference configuration of the output
    check.  With a ``tracer`` every front-end layer gets a span and the
    backend/recorder are wrapped in their tracing proxies.
    """
    span = span_factory(tracer)
    with span("gsql.load_script"):
        catalog = Catalog()
        catalog.add_stream(tcp_schema())
        catalog.load_script(script, params=params)
    with span("plan.dag"):
        dag = QueryDag.from_catalog(catalog)
    with span("partitioning.search"):
        search = choose_partitioning(dag, input_rate=trace.rate)
    if centralized or partitioning is None:
        chosen = None
    elif partitioning == CHOSEN:
        chosen = None if search.partitioning.is_empty else search.partitioning
    else:
        chosen = PartitioningSet.of(*partitioning)
    placement = (
        Placement(num_hosts=1, partitions_per_host=1)
        if centralized
        else Placement(num_hosts=NUM_HOSTS, partitions_per_host=PARTITIONS_PER_HOST)
    )
    with span("distopt.optimize"):
        plan = DistributedOptimizer(
            dag, placement, chosen, deliver=list(deliver) if deliver else None
        ).optimize()
    order = plan.topological()
    layers = {
        node.node_id: layer
        for node in order
        if (layer := _engine_layer(dag, node)) is not None
    }
    capacity = experiment_capacity(capacity_experiment, trace)
    hosts = [Host(index, capacity) for index in range(plan.num_hosts)]
    with span("runtime.backend.compile"):
        backend = create_backend("columnar", dag)
        if tracer is not None:
            recorder = TracedRecorder(hosts, NetworkMeter(), DEFAULT_COSTS, tracer)
            backend = _TracedBackend(backend, tracer, layers)
        else:
            recorder = EpochClock(hosts, NetworkMeter(), DEFAULT_COSTS)
        session = ExecutionSession(dag, plan, backend, recorder)
    if chosen is None:
        splitter = RoundRobinSplitter(placement.num_partitions)
    else:
        splitter = HashSplitter(placement.num_partitions, chosen)
    return Deployment(
        dag=dag,
        plan=plan,
        session=session,
        recorder=recorder,
        splitter=splitter,
        layers=layers,
        queries=len(dag.query_nodes()),
        candidates=len(search.explored),
        plan_nodes=len(order),
        delivered=tuple(plan.delivery),
    )


def sources_of(deployment: Deployment, trace: Trace) -> Dict[str, object]:
    batch = trace.column_batch()
    return {source.name: batch for source in deployment.dag.sources()}


def execute(
    deployment: Deployment,
    trace: Trace,
    streaming: bool,
    execution: str = "inprocess",
    workers: Optional[int] = None,
):
    """Split, execute and deliver; returns ``(result, epoch_seconds)``.

    ``epoch_seconds`` holds the wall between consecutive epoch marks (the
    last epoch ends at the flush mark); a one-shot run has one entry, its
    single step.
    """
    recorder = deployment.recorder
    recorder.marks.clear()
    started = time.perf_counter()
    result = deployment.session.execute(
        sources_of(deployment, trace),
        deployment.splitter,
        trace.duration_sec,
        streaming=streaming,
        epoch_column=EPOCH_COLUMN,
        execution=execution,
        workers=workers,
    )
    marks = recorder.marks if streaming else [started] + recorder.marks
    return result, [later - earlier for earlier, later in zip(marks, marks[1:])]


def oracle_outputs(deployment: Deployment, trace: Trace) -> Dict[str, list]:
    """The paper's §3.4 oracle: the row engine's centralized run."""
    packets = trace.packets
    return run_centralized(
        deployment.dag,
        {source.name: packets for source in deployment.dag.sources()},
    )


def same_rows(left, right) -> bool:
    return batches_equal(left, right)


# -- standalone layer probes (no seam inside the run loop) ---------------------------


def epoch_slices(trace: Trace) -> list:
    return slice_by_epoch(trace.column_batch(), EPOCH_COLUMN)


def splitter_pieces(trace: Trace, streaming: bool) -> list:
    """The batches the splitter sees: epoch slices, or the whole trace."""
    if streaming:
        return [piece for _, piece in epoch_slices(trace)]
    return [trace.column_batch()]


def assign_partitions(deployment: Deployment, pieces: list) -> List[int]:
    """Run the splitter's assigner alone over every piece; returns the
    rows each partition received."""
    splitter = deployment.splitter
    counts = np.zeros(splitter.num_partitions, dtype=np.int64)
    offset = 0
    for piece in pieces:
        indices = splitter.assign_indices(piece, offset)
        offset += len(piece)
        counts += np.bincount(indices, minlength=splitter.num_partitions)
    return counts.tolist()


def start_pool(deployment: Deployment, workers: int) -> ParallelExecutor:
    """Fork the worker pool exactly as a parallel run does."""
    plan = deployment.plan
    return ParallelExecutor(
        plan,
        deployment.session.backend,
        plan.topological(),
        EPOCH_COLUMN,
        set(plan.delivery.values()),
        workers,
    )


def engine_counters(deployment: Deployment, result) -> Dict[str, Dict[str, float]]:
    """Per ``engine.*`` layer: rows in/out and operator wall seconds, from
    the run's public per-node counters."""
    layers: Dict[str, Dict[str, float]] = {}
    for node_id, stats in result.node_stats.items():
        entry = layers.setdefault(
            deployment.layers[node_id],
            {"rows_in": 0, "rows_out": 0, "wall_seconds": 0.0},
        )
        entry["rows_in"] += stats.rows_in
        entry["rows_out"] += stats.rows_out
        entry["wall_seconds"] += stats.wall_seconds
    return layers


def cluster_counters(result) -> Dict[str, float]:
    """The modeled accounting of one run (deterministic, exact)."""
    cpu = [host.cpu_units for host in result.hosts]
    mean_cpu = sum(cpu) / len(cpu)
    return {
        "agg_cpu_pct": result.aggregator_cpu_load(),
        "agg_net_tuples_per_s": result.aggregator_network_load(),
        "cluster.network.total_tuples": result.network.total_tuples(),
        "cluster.network.agg_bytes": result.network.bytes_received.get(
            result.aggregator, 0.0
        ),
        "cluster.host.peak_cpu_units": max(cpu),
        "cluster.host.cpu_imbalance": max(cpu) / mean_cpu if mean_cpu else 0.0,
    }
