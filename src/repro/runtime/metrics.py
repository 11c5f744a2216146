"""The observability spine: every counter one run produces, in one place.

:class:`MetricsRecorder` owns the accounting that execution emits — CPU
cost-unit charges per host, tuples/bytes per network link, per-epoch
buckets, and per-node rows/bytes/wall-time counters — and assembles the
per-epoch :class:`Timeline` after a streaming run.  The
:class:`~repro.cluster.host.Host` and
:class:`~repro.cluster.network.NetworkMeter` objects remain the stores
(results expose them directly, and their numbers are byte-identical to
the pre-runtime layout); the recorder is the single writer that
coordinates them.

With ``record_events=True`` the recorder additionally keeps a structured
event trace (one dict per epoch boundary / node step / link transfer)
that :meth:`MetricsRecorder.dump_events` writes as JSON lines for
offline inspection.  Every event carries ``host`` (the cluster host the
event is attributed to, None for cluster-wide events) and ``pid`` (the
OS process that did the work — the driver for routing/epoch events, a
worker process for node steps under parallel execution), so traces from
multiprocess runs remain attributable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..distopt.plan_ir import DistKind, DistNode, Variant
from ..gsql.analyzer import NodeKind

if TYPE_CHECKING:
    from ..cluster.costs import CostTable
    from ..cluster.host import Host
    from ..cluster.network import NetworkMeter

Link = Tuple[int, int]

#: Event-trace phase label for the final buffer-draining step.
FLUSH_PHASE = "flush"


@dataclass
class Timeline:
    """Per-epoch metric series collected by a streaming run.

    ``epochs`` holds the epoch-key values in execution order; every
    series has one entry per epoch.  Flush work (buffers drained after
    the last epoch) is folded into the final bucket, so each series sums
    to the corresponding run total.
    """

    epochs: List[object]
    host_cpu: List[List[float]]  # [host index][epoch index] -> cpu units
    link_tuples: Dict[Link, List[int]]
    link_bytes: Dict[Link, List[float]]

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def host_cpu_series(self, host: int) -> List[float]:
        return self.host_cpu[host]

    def tuples_received_series(self, host: int) -> List[int]:
        """Tuples arriving at ``host`` over the LAN, per epoch."""
        series = [0] * len(self.epochs)
        for (_, dst), counts in self.link_tuples.items():
            if dst == host:
                series = [total + c for total, c in zip(series, counts)]
        return series

    def render(self, aggregator: int) -> str:
        """A terminal table: per-epoch CPU per host and aggregator traffic."""
        hosts = range(len(self.host_cpu))
        header = "epoch".rjust(8) + "".join(
            f"{f'cpu[h{h}]':>12}" for h in hosts
        ) + f"{'agg recv':>12}"
        lines = [header]
        received = self.tuples_received_series(aggregator)
        for index, epoch in enumerate(self.epochs):
            cells = "".join(
                f"{self.host_cpu[h][index]:12.1f}" for h in hosts
            )
            lines.append(f"{epoch!s:>8}{cells}{received[index]:12d}")
        return "\n".join(lines)


@dataclass
class NodeStats:
    """Cumulative per-node execution counters (all epochs of one run)."""

    rows_in: int = 0
    rows_out: int = 0
    bytes_out: float = 0.0
    wall_seconds: float = 0.0
    steps: int = 0


@dataclass
class HostFlowStats:
    """Per-epoch ingest-queue accounting for one host.

    Populated only by streaming runs with flow control or fault injection
    active; every list has one entry per epoch (flush work folds into the
    last bucket, with the final backlog *replacing* the last ``rows_queued``
    entry so the conservation recurrence keeps holding).  ``rows_in``
    counts rows arriving at the host's queue in that epoch — including
    duplicates injected by faults and rows lost to a ``skip`` fault at
    the NIC, which appear again in ``rows_dropped``.
    """

    rows_in: List[int] = field(default_factory=list)
    rows_delivered: List[int] = field(default_factory=list)
    rows_dropped: List[int] = field(default_factory=list)
    rows_queued: List[int] = field(default_factory=list)

    @property
    def total_in(self) -> int:
        return sum(self.rows_in)

    @property
    def total_delivered(self) -> int:
        return sum(self.rows_delivered)

    @property
    def total_dropped(self) -> int:
        return sum(self.rows_dropped)

    def conserves(self) -> bool:
        """Per epoch: prior backlog + rows_in == delivered + dropped +
        backlog, and the final flush leaves no backlog behind."""
        backlog = 0
        for index in range(len(self.rows_in)):
            if backlog + self.rows_in[index] != (
                self.rows_delivered[index]
                + self.rows_dropped[index]
                + self.rows_queued[index]
            ):
                return False
            backlog = self.rows_queued[index]
        return backlog == 0


class MetricsRecorder:
    """Single writer for all host, network, epoch, and node accounting."""

    def __init__(
        self,
        hosts: List["Host"],
        network: "NetworkMeter",
        costs: "CostTable",
        record_events: bool = False,
    ):
        self.hosts = hosts
        self.network = network
        self.costs = costs
        self.record_events = record_events
        self.node_stats: Dict[str, NodeStats] = {}
        self.flow_stats: Dict[int, HostFlowStats] = {}
        self.shed_counts: Dict[str, int] = {}
        self.fault_counts: Dict[Tuple[int, str], int] = {}
        self.rebalance_counts: Dict[str, int] = {}
        self.fallback_nodes: Dict[str, str] = {}
        self.source_columns: Dict[str, Tuple[List[str], List[str]]] = {}
        self.events: List[dict] = []
        self._phase: object = None
        self._pid = os.getpid()

    def _event(self, payload: dict, host: Optional[int] = None,
               pid: Optional[int] = None) -> None:
        """Append one trace event, host/pid-tagged (see module docstring)."""
        payload["host"] = host
        payload["pid"] = pid if pid is not None else self._pid
        self.events.append(payload)

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter; a session calls this at the top of a run."""
        for host in self.hosts:
            host.reset()
        self.network.reset()
        self.node_stats.clear()
        self.flow_stats.clear()
        self.shed_counts.clear()
        self.fault_counts.clear()
        self.rebalance_counts.clear()
        self.fallback_nodes.clear()
        self.source_columns.clear()
        self.events.clear()
        self._phase = None

    def begin_epoch(self, epoch: object) -> None:
        """Open a per-epoch bucket on every host and the network meter."""
        self._phase = epoch
        for host in self.hosts:
            host.begin_epoch()
        self.network.begin_epoch()
        if self.record_events:
            self._event({"event": "epoch", "epoch": epoch})

    def begin_flush(self) -> None:
        """Mark the flush step.  No new bucket: flush work folds into the
        last epoch's bucket, keeping every series summing to run totals."""
        self._phase = FLUSH_PHASE
        if self.record_events:
            self._event({"event": "epoch", "epoch": FLUSH_PHASE})

    def record_execution_mode(
        self, mode: str, workers: Optional[int] = None, reason: Optional[str] = None
    ) -> None:
        """How this run executes operators, decided at session start.

        ``mode`` is ``"parallel"`` (multiprocess host execution) or
        ``"inprocess"``; ``reason`` explains a fallback (parallel was
        requested but unavailable — single host, one worker, or no usable
        multiprocessing start method).  Recorded as a ``compile``-style
        setup event so a silent downgrade to serial execution is visible
        in the trace.
        """
        if self.record_events:
            event = {"event": "execution", "mode": mode}
            if workers is not None:
                event["workers"] = workers
            if reason is not None:
                event["reason"] = reason
            self._event(event)

    # -- charging primitives ---------------------------------------------------

    def charge(self, host: int, units: float, category: str) -> None:
        self.hosts[host].charge(units, category)

    def record_transfer(
        self, src_host: int, dst_host: int, tuples: int, width: float
    ) -> None:
        """Meter ``tuples`` rows of ``width`` bytes crossing src -> dst,
        charging the serialization/deserialization overhead to both ends."""
        self.network.record(src_host, dst_host, tuples, width)
        self.charge(src_host, tuples * self.costs.send_remote, "send")
        self.charge(dst_host, tuples * self.costs.receive_remote, "ingest-remote")
        if self.record_events and tuples:
            self._event(
                {
                    "event": "transfer",
                    "epoch": self._phase,
                    "src": src_host,
                    "dst": dst_host,
                    "tuples": tuples,
                    "bytes": tuples * width,
                },
                host=dst_host,
            )

    def charge_local_ingest(self, host: int, tuples: int) -> None:
        self.charge(host, tuples * self.costs.receive_local, "ingest")

    def charge_processing(
        self,
        node: DistNode,
        analyzed_kind: Optional[NodeKind],
        rows_in: int,
        rows_out: int,
        host: Optional[int] = None,
    ) -> None:
        """Attribute one node step's operator work to its host.

        ``analyzed_kind`` is the analyzed query-node kind for OP nodes and
        None for the purely physical MERGE/NULLPAD nodes.  ``host``
        overrides the plan host — the rebalancer charges a migrated
        node's work to the host its partitions currently live on.
        """
        costs = self.costs
        host = self.hosts[node.host if host is None else host]
        if node.kind is DistKind.MERGE:
            host.charge(rows_in * costs.merge, "merge")
            return
        if node.kind is DistKind.NULLPAD:
            host.charge(rows_in * costs.selection + rows_out * costs.emit, "nullpad")
            return
        if analyzed_kind is NodeKind.SELECTION:
            host.charge(
                rows_in * costs.selection + rows_out * costs.emit, "selection"
            )
        elif analyzed_kind is NodeKind.AGGREGATION:
            if node.variant in (Variant.SUPER, Variant.SKETCH_SUPER):
                category = (
                    "sketch-super"
                    if node.variant is Variant.SKETCH_SUPER
                    else "super-aggregate"
                )
                host.charge(
                    rows_in * costs.super_merge + rows_out * costs.emit,
                    category,
                )
            else:
                category = {
                    Variant.SUB: "sub-aggregate",
                    Variant.SKETCH_SUB: "sketch-sub",
                }.get(node.variant, "aggregate")
                host.charge(
                    rows_in * costs.aggregate_update + rows_out * costs.emit,
                    category,
                )
        elif analyzed_kind is NodeKind.JOIN:
            host.charge(rows_in * costs.join_probe + rows_out * costs.emit, "join")
        elif analyzed_kind is NodeKind.UNION:
            host.charge(rows_in * costs.merge, "union")
        else:
            raise ValueError(f"unexpected node kind {analyzed_kind!r}")

    # -- compile-time decisions ------------------------------------------------

    def record_compiled_node(
        self,
        node_id: str,
        label: str,
        fallback: bool,
        host: Optional[int] = None,
        variant: Optional[str] = None,
    ) -> None:
        """One plan node's engine resolution, recorded at compile time.

        ``fallback`` marks a node the engine could not run natively (on
        the columnar backend: no vectorized kernel) and resolved to the
        row operator.  Fallbacks are kept per node id in
        ``fallback_nodes`` and surfaced in the event trace and the
        ``repro timeline`` summary, so a silent row downgrade is visible
        the moment it reappears.  ``variant`` is the optimizer-chosen
        aggregation variant for OP nodes (None for MERGE/NULLPAD), so the
        exact-vs-sketch decision is visible per node in the trace.
        """
        if fallback:
            self.fallback_nodes[node_id] = label
        if self.record_events:
            event = {
                "event": "compile",
                "node": node_id,
                "label": label,
                "fallback": fallback,
            }
            if variant is not None:
                event["variant"] = variant
            self._event(event, host=host)

    @property
    def fallback_count(self) -> int:
        return len(self.fallback_nodes)

    def record_source_columns(
        self, stream: str, kept: List[str], dropped: List[str]
    ) -> None:
        """One source stream's lineage pruning: the columns some plan
        node (or the splitter, or the epoch slicer) reads were ``kept``,
        the rest ``dropped`` before the stream was sliced and split.
        Traced as the stream's ``compile`` event, so a column that goes
        missing downstream explains itself."""
        self.source_columns[stream] = (kept, dropped)
        if self.record_events:
            self._event(
                {
                    "event": "compile",
                    "node": stream,
                    "label": "source",
                    "fallback": False,
                    "kept": kept,
                    "dropped": dropped,
                }
            )

    # -- per-node counters -----------------------------------------------------

    def record_node_step(
        self,
        node_id: str,
        rows_in: int,
        rows_out: int,
        width: float,
        wall_seconds: float,
        host: Optional[int] = None,
        pid: Optional[int] = None,
    ) -> None:
        """One node step's counters.  ``host`` is the plan host executing
        the node; ``pid`` the OS process that ran the operator (a worker
        process under parallel execution, the driver otherwise)."""
        stats = self.node_stats.get(node_id)
        if stats is None:
            stats = self.node_stats[node_id] = NodeStats()
        stats.rows_in += rows_in
        stats.rows_out += rows_out
        stats.bytes_out += rows_out * width
        stats.wall_seconds += wall_seconds
        stats.steps += 1
        if self.record_events:
            self._event(
                {
                    "event": "node",
                    "epoch": self._phase,
                    "node": node_id,
                    "rows_in": rows_in,
                    "rows_out": rows_out,
                    "wall_us": round(wall_seconds * 1e6, 3),
                },
                host=host,
                pid=pid,
            )

    # -- flow control ----------------------------------------------------------

    def record_ingest(
        self,
        host: int,
        rows_in: int,
        rows_delivered: int,
        rows_dropped: int,
        rows_queued: int,
    ) -> None:
        """One host's ingest-queue accounting for the current step.

        Called once per host per epoch step by the ingest controller.
        Flush-step work folds into the last epoch's bucket — except the
        backlog, which the flush value replaces (the queue state at the
        end of the run, normally zero).
        """
        stats = self.flow_stats.get(host)
        if stats is None:
            stats = self.flow_stats[host] = HostFlowStats()
        if self._phase == FLUSH_PHASE and stats.rows_in:
            stats.rows_in[-1] += rows_in
            stats.rows_delivered[-1] += rows_delivered
            stats.rows_dropped[-1] += rows_dropped
            stats.rows_queued[-1] = rows_queued
        else:
            stats.rows_in.append(rows_in)
            stats.rows_delivered.append(rows_delivered)
            stats.rows_dropped.append(rows_dropped)
            stats.rows_queued.append(rows_queued)
        if self.record_events and rows_dropped:
            self._event(
                {
                    "event": "drop",
                    "epoch": self._phase,
                    "rows": rows_dropped,
                    "queued": rows_queued,
                },
                host=host,
            )

    def record_shed(
        self, host: int, rows: int, queries: Dict[str, int]
    ) -> None:
        """One host's semantic-shedding decision for the current step.

        ``rows`` were shed (they are also counted in the step's
        ``rows_dropped`` via :meth:`record_ingest`, so flow conservation
        is unchanged); ``queries`` attributes the loss per delivered
        query — how many of the shed rows still carried value for it at
        the moment they were shed.  A row provably worthless to every
        query is shed without charging anyone.
        """
        if not rows:
            return
        for query, count in queries.items():
            self.shed_counts[query] = self.shed_counts.get(query, 0) + count
        if self.record_events:
            self._event(
                {
                    "event": "shed",
                    "epoch": self._phase,
                    "rows": rows,
                    "queries": dict(sorted(queries.items())),
                },
                host=host,
            )

    def record_rebalance(self, action: str, **payload) -> None:
        """One rebalance-protocol step: ``trigger`` (sustained imbalance
        armed the controller), ``plan`` (the boundary's migration list),
        ``migration`` (one group re-homed, with its state handoff),
        ``complete`` (directory swap done), or ``advice`` (the hot group
        is atomic; a finer compatible partitioning was recommended)."""
        self.rebalance_counts[action] = self.rebalance_counts.get(action, 0) + 1
        if self.record_events:
            self._event(
                {"event": "rebalance", "action": action,
                 "epoch": self._phase, **payload}
            )

    def record_fault(self, host: int, kind: str, rows: int) -> None:
        """One fault firing: ``rows`` of ``host``'s input skipped,
        delayed, or duplicated this step."""
        key = (host, kind)
        self.fault_counts[key] = self.fault_counts.get(key, 0) + rows
        if self.record_events:
            self._event(
                {
                    "event": "fault",
                    "epoch": self._phase,
                    "kind": kind,
                    "rows": rows,
                },
                host=host,
            )

    # -- assembly --------------------------------------------------------------

    def build_timeline(self, epochs: List[object]) -> Timeline:
        """Fold the hosts' and meter's epoch buckets into per-link series."""
        link_tuples: Dict[Link, List[int]] = {}
        link_bytes: Dict[Link, List[float]] = {}
        for link in self.network.link_tuples:
            link_tuples[link] = [
                bucket.get(link, 0) for bucket in self.network.epoch_link_tuples
            ]
            link_bytes[link] = [
                bucket.get(link, 0.0) for bucket in self.network.epoch_link_bytes
            ]
        return Timeline(
            epochs=list(epochs),
            host_cpu=[list(host.epoch_cpu) for host in self.hosts],
            link_tuples=link_tuples,
            link_bytes=link_bytes,
        )

    def host_pids(self) -> Dict[Optional[int], List[int]]:
        """Distinct executing pids per host seen in the event trace.

        The None key collects cluster-wide events (epoch boundaries,
        execution-mode records) — always the driver pid.  In-process runs
        show one pid everywhere; parallel runs show one worker pid per
        host plus the driver, and two worker pids for a host that a
        migrated node moved to (the node keeps stepping in its worker).
        """
        by_host: Dict[Optional[int], set] = {}
        for event in self.events:
            pid = event.get("pid")
            if pid is None:
                continue
            by_host.setdefault(event.get("host"), set()).add(pid)
        return {host: sorted(pids) for host, pids in by_host.items()}

    def dump_events(self, handle) -> int:
        """Write the recorded event trace as JSON lines; returns the count."""
        for event in self.events:
            handle.write(json.dumps(event, default=str) + "\n")
        return len(self.events)
