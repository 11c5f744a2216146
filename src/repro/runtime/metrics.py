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
import operator
import os
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

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
        self.fault_counts: Dict[Tuple[int, str], int] = {}
        self.rebalance_counts: Dict[str, int] = {}
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
        self.fault_counts.clear()
        self.rebalance_counts.clear()
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
        requested but unavailable — single host, one worker, or no
        ``fork``).  Recorded as a ``compile``-style setup event so a
        downgrade to serial execution is visible in the trace; the run's
        result keeps the reason either way.
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
            self.transfer_event(src_host, dst_host, tuples, width)

    def transfer_event(
        self, src_host: int, dst_host: int, tuples: int, width: float
    ) -> None:
        """One transfer, traced (attributed to the receiving host)."""
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

    def node_event(
        self,
        node_id: str,
        rows_in: int,
        rows_out: int,
        wall_seconds: float,
        host: int,
        pid: Optional[int],
    ) -> None:
        """One node step, traced.  ``host`` is the host the node was
        charged to; ``pid`` the OS process that ran the operator (a
        worker process under parallel execution, None for the driver)."""
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

    # -- compile-time decisions ------------------------------------------------

    def record_compiled_node(
        self,
        node_id: str,
        label: str,
        host: Optional[int] = None,
        variant: Optional[str] = None,
    ) -> None:
        """One plan node compiled to its kernel, traced.  ``variant`` is
        the optimizer-chosen aggregation variant for OP nodes (None for
        MERGE/NULLPAD), so the exact-vs-sketch decision is visible per
        node in the trace."""
        if self.record_events:
            event = {"event": "compile", "node": node_id, "label": label}
            if variant is not None:
                event["variant"] = variant
            self._event(event, host=host)

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
                    "kept": kept,
                    "dropped": dropped,
                }
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


# -- the charge plan -------------------------------------------------------------

#: Charge categories every replayed step can use, by code; processing
#: categories follow from code 3 on, in plan order.
_INGEST, _INGEST_REMOTE, _SEND = 0, 1, 2
_EDGE_CATEGORIES = ("ingest", "ingest-remote", "send")


def _processing_cost(
    node: DistNode, analyzed_kind: Optional[NodeKind], costs: "CostTable"
) -> Tuple[str, float, float]:
    """One node's processing charge: ``(category, cost per input row,
    cost per output row)``.  ``analyzed_kind`` is the analyzed query-node
    kind for OP nodes and None for the purely physical MERGE/NULLPAD
    nodes.  A zero output cost adds ``+0.0``, which leaves every
    non-negative float as it is."""
    if node.kind is DistKind.MERGE:
        return "merge", costs.merge, 0.0
    if node.kind is DistKind.NULLPAD:
        return "nullpad", costs.selection, costs.emit
    if analyzed_kind is NodeKind.SELECTION:
        return "selection", costs.selection, costs.emit
    if analyzed_kind is NodeKind.AGGREGATION:
        if node.variant is Variant.SUPER:
            return "super-aggregate", costs.super_merge, costs.emit
        if node.variant is Variant.SKETCH_SUPER:
            return "sketch-super", costs.super_merge, costs.emit
        category = {
            Variant.SUB: "sub-aggregate",
            Variant.SKETCH_SUB: "sketch-sub",
        }.get(node.variant, "aggregate")
        return category, costs.aggregate_update, costs.emit
    if analyzed_kind is NodeKind.JOIN:
        return "join", costs.join_probe, costs.emit
    if analyzed_kind is NodeKind.UNION:
        return "union", costs.merge, 0.0
    raise ValueError(f"unexpected node kind {analyzed_kind!r}")


def _entries(keys: Sequence[str]) -> Callable[[Mapping], tuple]:
    """A callable returning a mapping's entries for ``keys`` as a tuple —
    one C-level call per step for any number of keys but one or none."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda mapping: tuple(mapping[key] for key in keys)


def _left_folds(
    groups: np.ndarray, values: np.ndarray, start_of: Callable[[int], float]
) -> List[Tuple[int, float]]:
    """Per distinct group id: ``start_of(id) + v0 + v1 + ...`` over the
    group's values, strictly left to right in array order.  Groups come
    back in order of first appearance, so new dictionary keys are made in
    the order one-at-a-time charging makes them.

    One ``np.add.accumulate`` down the columns of a padded grid does every
    fold at once: column *g* is ``[start, values..., 0.0, ...]``, and each
    column is folded top to bottom.  Padding adds ``+0.0``, which leaves
    every non-negative float as it is; charges are never negative.
    """
    # A stable sort of small non-negative ids (NumPy radix-sorts 8- and
    # 16-bit keys) keeps each group's values in array order.
    order = np.argsort(
        groups.astype(np.min_scalar_type(int(groups.max()))), kind="stable"
    )
    ordered = groups[order]
    heads = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ids = ordered[heads].tolist()
    lengths = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1] = len(ordered) - heads[-1]
    column = np.repeat(np.arange(len(heads)), lengths)
    grid = np.zeros((int(lengths.max()) + 1, len(heads)))
    grid[0] = [start_of(group) for group in ids]
    depth = np.arange(1, len(ordered) + 1) - heads[column]
    grid.ravel()[depth * len(heads) + column] = values[order]
    totals = np.add.accumulate(grid, axis=0)[-1].tolist()
    return [(ids[k], totals[k]) for k in np.argsort(order[heads]).tolist()]


class ChargePlan:
    """One run's charge replay, compiled once from the plan's node order.

    Per node the plan holds its processing category and per-row input and
    output cost (:func:`_processing_cost`), and per child edge the child's
    output width.  :meth:`replay` charges one step from the step's row
    count per node and the partition directory's node -> host table,
    looked up per step because a migration changes it.  The charges are
    the ones node-by-node charging makes, in its order: per node in plan
    order, each child edge (a local ingest, or a transfer metered on its
    link and charged to both ends), then the node's processing.

    They land as array folds per host, per (host, category), per
    receiving host and per link.  Every float fold is
    ``np.add.accumulate`` in that order: a left fold, so each total is
    bit-equal to charging one call at a time.  ``np.sum`` and
    ``np.add.reduceat`` sum pairwise and would not be.  Per-node counters
    accumulate in arrays and reach ``recorder.node_stats`` at
    :meth:`finish`.
    """

    def __init__(
        self,
        recorder: MetricsRecorder,
        order: Sequence[DistNode],
        kinds: Mapping[str, Optional[NodeKind]],
        widths: Mapping[str, float],
    ):
        self._recorder = recorder
        self.ids = [node.node_id for node in order]
        position = {node_id: index for index, node_id in enumerate(self.ids)}
        self._categories = list(_EDGE_CATEGORIES)
        sources: List[int] = []
        ops: List[int] = []
        op_category: List[int] = []
        cost_in: List[float] = []
        cost_out: List[float] = []
        edge_child: List[int] = []
        edge_parent: List[int] = []
        edge_starts: List[int] = []
        # Each step concatenates its charges as [source ingests, edge
        # sends, edge receives, processing]; ``slots`` records where each
        # one falls in node-by-node charging order.
        slots: List[List[int]] = [[], [], [], []]
        slot = 0
        for index, node in enumerate(order):
            if node.kind is DistKind.SOURCE:
                sources.append(index)
                slots[0].append(slot)
                slot += 1
                continue
            edge_starts.append(len(edge_child))
            for child_id in node.inputs:
                edge_child.append(position[child_id])
                edge_parent.append(index)
                slots[1].append(slot)
                slots[2].append(slot + 1)
                slot += 2
            category, per_in, per_out = _processing_cost(
                node, kinds.get(node.node_id), recorder.costs
            )
            if category not in self._categories:
                self._categories.append(category)
            ops.append(index)
            op_category.append(self._categories.index(category))
            cost_in.append(per_in)
            cost_out.append(per_out)
            slots[3].append(slot)
            slot += 1
        self._sources = np.asarray(sources, dtype=np.intp)
        self._ops = np.asarray(ops, dtype=np.intp)
        self._op_ids = [self.ids[index] for index in ops]
        self._pick = _entries(self.ids)
        self._pick_ops = _entries(self._op_ids)
        self._op_category = np.asarray(op_category, dtype=np.intp)
        self._cost_in = np.asarray(cost_in, dtype=np.float64)
        self._cost_out = np.asarray(cost_out, dtype=np.float64)
        self._edge_child = np.asarray(edge_child, dtype=np.intp)
        self._edge_parent = np.asarray(edge_parent, dtype=np.intp)
        self._edge_starts = np.asarray(edge_starts, dtype=np.intp)
        self._edge_width = np.asarray(
            [widths[self.ids[child]] for child in edge_child], dtype=np.float64
        )
        self._op_width = np.asarray(
            [widths[node_id] for node_id in self._op_ids], dtype=np.float64
        )
        self._sequence = np.argsort(np.concatenate(slots).astype(np.intp))
        self._source_categories = np.full(len(sources), _INGEST, dtype=np.intp)
        self._send_categories = np.full(len(edge_child), _SEND, dtype=np.intp)
        # Source ingests, edge receives and processing always charge.
        self._source_live = np.ones(len(sources), dtype=bool)
        self._tail_live = np.ones(len(edge_child) + len(ops), dtype=bool)
        self._rows_out = np.zeros(len(self.ids), dtype=np.int64)
        self._rows_in = np.zeros(len(ops), dtype=np.int64)
        self._bytes_out = np.zeros(len(ops), dtype=np.float64)
        self._walls = np.zeros(len(ops), dtype=np.float64)
        self._steps = 0

    def replay(
        self,
        lens: Mapping[str, int],
        hosts: Mapping[str, int],
        walls: Mapping[str, float],
        pids: Mapping[str, int],
    ) -> int:
        """Charge one step; returns its largest output batch.

        ``lens`` holds every node's output rows this step (sources
        included), ``hosts`` each node's host, ``walls`` each non-source
        node's operator seconds and ``pids`` the worker that ran it (empty
        in-process)."""
        rows = np.array(self._pick(lens), dtype=np.int64)
        host_of = np.array(self._pick(hosts), dtype=np.intp)
        costs = self._recorder.costs
        child_rows = rows[self._edge_child]
        child_hosts = host_of[self._edge_child]
        parent_hosts = host_of[self._edge_parent]
        remote = child_hosts != parent_hosts
        op_rows = rows[self._ops]
        rows_in = (
            np.add.reduceat(child_rows, self._edge_starts)
            if len(self._ops)
            else op_rows
        )
        sequence = self._sequence
        units = np.concatenate((
            rows[self._sources] * costs.receive_local,
            child_rows * costs.send_remote,
            child_rows
            * np.where(remote, costs.receive_remote, costs.receive_local),
            rows_in * self._cost_in + op_rows * self._cost_out,
        ))[sequence]
        slot_hosts = np.concatenate(
            (host_of[self._sources], child_hosts, parent_hosts, host_of[self._ops])
        )[sequence]
        categories = np.concatenate((
            self._source_categories,
            self._send_categories,
            np.where(remote, _INGEST_REMOTE, _INGEST),
            self._op_category,
        ))[sequence]
        # A local edge charges its receiver only: drop its send slot.
        live = np.concatenate((self._source_live, remote, self._tail_live))[sequence]
        moved = remote.nonzero()[0]
        tuples = child_rows[moved]
        self._fold(
            units[live],
            slot_hosts[live],
            categories[live],
            child_hosts[moved],
            parent_hosts[moved],
            tuples,
            tuples * self._edge_width[moved],
        )
        wall = np.array(self._pick_ops(walls), dtype=np.float64)
        if self._recorder.record_events:
            self._trace(rows, host_of, rows_in, wall, pids)
        self._rows_out += rows
        self._rows_in += rows_in
        self._bytes_out += op_rows * self._op_width
        self._walls += wall
        self._steps += 1
        return int(rows.max(initial=0))

    def _fold(self, units, hosts, categories, src, dst, tuples, sizes) -> None:
        """Land one step's charges and transfers, in order.

        Each charge adds to its host's total, its host's epoch bucket and
        its host's category; each transfer adds tuples and bytes to its
        receiving host and to its link, and to the link's epoch bucket.
        Every float target is one group of a single :func:`_left_folds`;
        the tuple counts are integers, summed exactly by ``np.bincount``.
        """
        stores = self._recorder.hosts
        network = self._recorder.network
        count = len(stores)
        names = self._categories
        received_base = (2 + len(names)) * count
        link_base = received_base + count
        epoch = bool(network.epoch_link_tuples)
        links = src * count + dst
        received = np.bincount(dst, weights=tuples, minlength=count)
        moved = np.bincount(links, weights=tuples, minlength=count * count)

        def start_of(group: int) -> float:
            if group < count:
                return stores[group].cpu_units
            if group < 2 * count:
                epochs = stores[group - count].epoch_cpu
                return epochs[-1] if epochs else 0.0
            if group < received_base:
                host, code = divmod(group - 2 * count, len(names))
                return stores[host].by_category.get(names[code], 0.0)
            if group < link_base:
                return network.bytes_received.get(group - received_base, 0.0)
            link = divmod(group - link_base, count)
            return network.epoch_link_bytes[-1].get(link, 0.0) if epoch else 0.0

        groups = np.concatenate((
            hosts,
            hosts + count,
            hosts * len(names) + categories + 2 * count,
            dst + received_base,
            links + link_base,
        ))
        values = np.concatenate((units, units, units, sizes, sizes))
        for group, total in _left_folds(groups, values, start_of):
            if group < count:
                stores[group].cpu_units = total
            elif group < 2 * count:
                epochs = stores[group - count].epoch_cpu
                if epochs:
                    epochs[-1] = total
            elif group < received_base:
                host, code = divmod(group - 2 * count, len(names))
                stores[host].by_category[names[code]] = total
            elif group < link_base:
                host = group - received_base
                network.tuples_received[host] = network.tuples_received.get(
                    host, 0
                ) + int(received[host])
                network.bytes_received[host] = total
            else:
                link = divmod(group - link_base, count)
                count_moved = int(moved[group - link_base])
                network.link_tuples[link] = (
                    network.link_tuples.get(link, 0) + count_moved
                )
                if epoch:
                    bucket = network.epoch_link_tuples[-1]
                    bucket[link] = bucket.get(link, 0) + count_moved
                    network.epoch_link_bytes[-1][link] = total

    def _trace(self, rows, host_of, rows_in, wall, pids) -> None:
        """This step's ``transfer`` and ``node`` events, in charging order."""
        recorder = self._recorder
        edge_ends = np.append(self._edge_starts[1:], len(self._edge_child))
        for k, index in enumerate(self._ops.tolist()):
            node_id = self.ids[index]
            host = int(host_of[index])
            for edge in range(self._edge_starts[k], edge_ends[k]):
                child = self._edge_child[edge]
                tuples = int(rows[child])
                if host_of[child] != host and tuples:
                    recorder.transfer_event(
                        int(host_of[child]), host, tuples,
                        float(self._edge_width[edge]),
                    )
            recorder.node_event(
                node_id, int(rows_in[k]), int(rows[index]), float(wall[k]),
                host, pids.get(node_id),
            )

    def finish(self) -> Dict[str, int]:
        """Hand the run's per-node counters to ``recorder.node_stats``;
        returns every node's output rows over the run (sources included)."""
        if self._steps:
            for k, node_id in enumerate(self._op_ids):
                self._recorder.node_stats[node_id] = NodeStats(
                    rows_in=int(self._rows_in[k]),
                    rows_out=int(self._rows_out[self._ops[k]]),
                    bytes_out=float(self._bytes_out[k]),
                    wall_seconds=float(self._walls[k]),
                    steps=self._steps,
                )
        return dict(zip(self.ids, self._rows_out.tolist()))
