"""Flow control and fault injection for the streaming runtime.

The paper's cost model (§4.2.1) is all about bounding the load any one
host sees per epoch, but a simulator that delivers every split partition
with unbounded buffers and perfectly reliable hosts can never exercise
that bound.  This module puts a *per-host ingest queue* between the
splitter and the hosts, and a *fault plan* between the splitter and the
queues:

* :class:`QueuePolicy` caps how many rows one host ingests per epoch
  step.  The overflow behaviour is the policy: ``block`` defers the
  excess to later steps (lossless backpressure — the source watermark
  stalls on the oldest queued epoch so downstream buffering stays
  correct, and streaming output remains exactly the one-shot output),
  ``drop-newest`` refuses rows at admission once the step's budget is
  spent, and ``drop-oldest`` evicts the longest-queued rows to make room
  for new arrivals.  Every drop is charged to the
  :class:`~repro.runtime.metrics.MetricsRecorder` as a per-epoch,
  per-host counter (and a ``drop`` event).
* :class:`FaultPlan` injects host misbehaviour by epoch index: ``skip``
  (the host is down; rows destined to it are lost at the NIC), ``delay``
  (delivery deferred by N epochs; lossless, the watermark holds until
  the late rows land), and ``duplicate`` (rows delivered twice).  Each
  firing is recorded as a ``fault`` event.
* :class:`PartitionDirectory` says which host each partition, and each
  plan node, is on now.  The queues route arrivals by it and the
  session charges costs by it; only the rebalance controller
  (:mod:`repro.runtime.rebalance`) changes it.

The :class:`IngestController` is the seam the
:class:`~repro.runtime.session.ExecutionSession` drives: the default
pass-through controller reproduces the historical byte-identical
delivery, while :class:`QueuedIngestController` implements the queues
and faults.  The controller also owns the *splitter cursor contract*:
:meth:`IngestController.begin_step` returns, per stream, the number of
this epoch's rows the ingest layer **accepted** (enqueued or deferred —
not refused at admission and not lost to a ``skip`` fault), and the
session advances the round-robin offset cursor by exactly that count.
Advancing on acceptance rather than on send keeps the cursor honest when
an epoch's batch is partially dropped.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..distopt.plan_ir import DistKind, DistNode, DistributedPlan
from ..engine.columnar import ColumnBatch
from ..engine.streaming import take_prefix

if TYPE_CHECKING:
    from .metrics import MetricsRecorder

BLOCK = "block"
DROP_OLDEST = "drop-oldest"
DROP_NEWEST = "drop-newest"
QUEUE_MODES = (BLOCK, DROP_NEWEST, DROP_OLDEST)

SKIP = "skip"
DELAY = "delay"
DUPLICATE = "duplicate"
LEAVE = "leave"
JOIN = "join"
FAULT_KINDS = (SKIP, DELAY, DUPLICATE, LEAVE, JOIN)

#: Elastic-membership kinds: consumed by the rebalance controller
#: (:mod:`repro.runtime.rebalance`), never by the ingest queues.  A
#: ``leave`` host is absent for its step range (its partitions are
#: evacuated at the range's first boundary and may return after it); a
#: ``join`` host is absent *before* ``first_epoch`` and present from it.
MEMBERSHIP_KINDS = (LEAVE, JOIN)

#: One delivered-to-host source slot: ``(stream, partition)``.
SourceKey = Tuple[str, int]


@dataclass(frozen=True)
class QueuePolicy:
    """A per-host ingest queue: capacity in rows per epoch step + mode.

    ``block`` is lossless (overflow waits, watermarks stall); the other
    modes shed load blind to the rows' content — ``drop-newest``
    refuses the newest arrivals once the step's budget is spent, and
    ``drop-oldest`` evicts the oldest queued rows so the freshest data
    survives.  Delivery is FIFO up to ``capacity`` in every mode, so
    both lossy modes share one drop budget.
    """

    capacity: int
    mode: str = BLOCK

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("queue capacity must be positive")
        if self.mode not in QUEUE_MODES:
            raise ValueError(
                f"queue mode must be one of {QUEUE_MODES}, got {self.mode!r}"
            )

    @property
    def lossless(self) -> bool:
        return self.mode == BLOCK

    def describe(self) -> str:
        return f"{self.mode} queue, {self.capacity} rows/epoch per host"


@dataclass(frozen=True)
class Fault:
    """One injected misbehaviour of one host over a range of epoch steps.

    Epochs are addressed by 0-based *step index* into the streaming run's
    epoch sequence (not by epoch value), so a fault plan is portable
    across traces.  ``delay`` is the deferral in epochs for the ``delay``
    kind and ignored otherwise.
    """

    kind: str
    host: int
    first_epoch: int
    last_epoch: int
    delay: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.host < 0:
            raise ValueError("fault host must be a host index")
        if self.first_epoch < 0 or self.last_epoch < self.first_epoch:
            raise ValueError("fault epochs must satisfy 0 <= first <= last")
        if self.kind == DELAY and self.delay <= 0:
            raise ValueError("delay faults need delay >= 1 epoch")

    def active(self, index: int) -> bool:
        return self.first_epoch <= index <= self.last_epoch

    @classmethod
    def parse(cls, spec: str) -> "Fault":
        """Parse a CLI fault spec: ``KIND:HOST:FIRST[-LAST][:DELAY]``.

        Examples: ``skip:1:2-4`` (host 1 misses epochs 2..4),
        ``delay:0:1-3:2`` (host 0's epochs 1..3 arrive 2 epochs late),
        ``duplicate:2:5`` (host 2's epoch 5 is delivered twice),
        ``leave:1:3-6`` (host 1 leaves the cluster for steps 3..6),
        ``join:3:4`` (host 3 is absent until step 4, present from it).
        """
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"fault spec {spec!r} is not KIND:HOST:FIRST[-LAST][:DELAY]"
            )
        kind = parts[0]
        first, dash, last = parts[2].partition("-")
        if dash and not last:
            raise ValueError(f"fault spec {spec!r}: the epoch range has no end")
        try:
            host = int(parts[1])
            first_epoch = int(first)
            last_epoch = int(last) if last else first_epoch
            delay = int(parts[3]) if len(parts) == 4 else 0
        except ValueError:
            raise ValueError(
                f"fault spec {spec!r}: host/epochs/delay must be integers"
            ) from None
        return cls(kind, host, first_epoch, last_epoch, delay)


@dataclass(frozen=True)
class FaultPlan:
    """The injected faults of one run (possibly several per host)."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(tuple(faults))

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultPlan":
        return cls(tuple(Fault.parse(spec) for spec in specs))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def active(self, kind: str, host: int, index: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.kind == kind and fault.host == host and fault.active(index):
                return fault
        return None

    def validate(self, num_hosts: int) -> None:
        """Bind-time check against the actual cluster size.

        ``Fault`` itself can only require a nonnegative host index — the
        cluster size is unknown until the plan binds to a session.  A
        fault aimed past the last host would otherwise *silently never
        fire*, which reads as "the system tolerated the fault" when in
        truth nothing was injected.
        """
        for fault in self.faults:
            if fault.host >= num_hosts:
                epochs = (
                    str(fault.first_epoch)
                    if fault.last_epoch == fault.first_epoch
                    else f"{fault.first_epoch}-{fault.last_epoch}"
                )
                raise ValueError(
                    f"fault {fault.kind}:{fault.host}:{epochs} targets host "
                    f"{fault.host}, but the cluster has {num_hosts} host(s) "
                    f"(valid indices 0..{num_hosts - 1})"
                )

    @property
    def membership(self) -> Tuple[Fault, ...]:
        """The elastic-membership (``leave``/``join``) faults."""
        return tuple(f for f in self.faults if f.kind in MEMBERSHIP_KINDS)

    @property
    def lossless(self) -> bool:
        """Whether the plan preserves every row (no ``skip`` faults;
        membership faults are lossless — partitions migrate, rows don't
        drop — provided a rebalance policy is active)."""
        return all(fault.kind != SKIP for fault in self.faults)


# -- the partition directory -----------------------------------------------------


class PartitionDirectory:
    """Partition -> current host, and plan node -> the host it runs on.

    Seeded from the plan's static layout (``plan.host_of_partition``),
    which never changes.  A plan node whose non-empty coverage lies
    entirely on its static home host (a source, a pushed per-partition
    operator, a host-local merge) is *movable*: it is charged to
    whichever host its partitions currently live on.  Every other node
    (central merges, SUPER aggregates, delivery) stays on its plan host.  The ingest queues route arrivals by :meth:`host_of`, the
    session charges each node to :attr:`node_host`, and the rebalance
    controller is the only caller of :meth:`assign`.
    """

    def __init__(self, plan: DistributedPlan):
        self.num_hosts = plan.num_hosts
        self._static: Dict[int, int] = {
            partition: plan.host_of_partition(partition)
            for partition in range(plan.num_partitions)
        }
        self._current: Dict[int, int] = dict(self._static)
        order = plan.topological()
        #: Node id -> the simulated host the node is charged to now.
        self.node_host: Dict[str, int] = {node.node_id: node.host for node in order}
        #: The movable nodes, in plan order.
        self.movable: Dict[str, DistNode] = {
            node.node_id: node
            for node in order
            if node.partitions
            and all(self._static[p] == node.host for p in node.partitions)
        }

    def host_of(self, partition: int) -> int:
        return self._current[partition]

    def static_host(self, partition: int) -> int:
        return self._static[partition]

    def assign(self, partition: int, host: int) -> None:
        """Re-home ``partition``; a movable node follows once all of its
        partitions share one host (co-movement keeps them together)."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} is not in the cluster")
        self._current[partition] = host
        for node_id, node in self.movable.items():
            if partition in node.partitions:
                hosts = {self._current[p] for p in node.partitions}
                self.node_host[node_id] = (
                    hosts.pop() if len(hosts) == 1 else node.host
                )

    def partitions_on(self, host: int) -> List[int]:
        return sorted(
            partition
            for partition, owner in self._current.items()
            if owner == host
        )

    def assignment(self) -> Dict[int, int]:
        return dict(self._current)

    @property
    def moved(self) -> Dict[int, int]:
        """Partitions currently away from their static home."""
        return {
            partition: host
            for partition, host in self._current.items()
            if host != self._static[partition]
        }


# -- controllers ---------------------------------------------------------------


class IngestController:
    """Pass-through delivery: the historical unbounded, reliable path.

    The session drives one controller per run.  :meth:`begin_step` sees
    the epoch's freshly split partitions and returns the accepted row
    count per stream (the splitter-cursor advance); :meth:`batch` hands
    each SOURCE node its delivered rows and :meth:`watermark_bound` the
    temporal bound its watermark may claim.
    """

    def begin_step(
        self,
        index: int,
        epoch: object,
        raw: Dict[str, List[ColumnBatch]],
        flush: bool,
    ) -> Dict[str, int]:
        self._raw = raw
        return {
            stream: sum(len(batch) for batch in partitions)
            for stream, partitions in raw.items()
        }

    def batch(self, stream: str, partition: int) -> ColumnBatch:
        return self._raw[stream][partition]

    def watermark_bound(self, stream: str, partition: int, next_bound):
        return next_bound

    def resident_rows(self) -> int:
        """Rows held inside the ingest layer (queued + deferred)."""
        return 0


class _Entry:
    """One queued delivery: an epoch's rows for one (stream, partition)."""

    __slots__ = ("stream", "partition", "epoch", "batch")

    def __init__(self, stream: str, partition: int, epoch, batch):
        self.stream = stream
        self.partition = partition
        self.epoch = epoch
        self.batch = batch


class QueuedIngestController(IngestController):
    """Per-host bounded queues + fault injection between splitter and hosts.

    Delivery is FIFO per host, so within-partition row order is preserved
    across deferrals — the invariant that keeps the ``block`` policy's
    streaming output exactly equal to the one-shot output.  Watermarks for
    a source stall at the oldest epoch still withheld for its partition
    (queued backlog or deferred delivery), and the final flush drains
    everything that was not dropped.
    """

    def __init__(
        self,
        plan: DistributedPlan,
        recorder: "MetricsRecorder",
        policy: Optional[QueuePolicy],
        faults: Optional[FaultPlan],
        directory: PartitionDirectory,
    ):
        self._recorder = recorder
        self._policy = policy
        self._faults = faults if faults is not None else FaultPlan()
        self._sources: List[Tuple[str, int]] = [
            (node.stream, next(iter(node.partitions)))
            for node in plan.topological()
            if node.kind is DistKind.SOURCE
        ]
        # Arrivals route to a partition's *current* host, which a
        # migration may change, so every cluster host has a queue.
        self._directory = directory
        self._hosts = list(range(plan.num_hosts))
        self._queues: Dict[int, Deque[_Entry]] = {
            host: deque() for host in self._hosts
        }
        # (release step index, destination host, entry) for delay faults.
        self._deferred: List[Tuple[int, int, _Entry]] = []
        self._delivered: Dict[SourceKey, List[ColumnBatch]] = {}
        self._floors: Dict[SourceKey, float] = {}

    # -- the session-facing protocol ------------------------------------------

    def begin_step(self, index, epoch, raw, flush):
        recorder = self._recorder
        accepted = {stream: 0 for stream in raw}
        rows_in = {host: 0 for host in self._hosts}
        dropped = {host: 0 for host in self._hosts}
        arrivals: Dict[int, List[_Entry]] = {host: [] for host in self._hosts}
        # Deferred deliveries land first: they carry older epochs, so FIFO
        # admission keeps per-partition order consistent with their time.
        remaining: List[Tuple[int, int, _Entry]] = []
        for release, host, entry in self._deferred:
            if flush or release <= index:
                # fresh=False: these rows were accepted (and the cursor
                # advanced) back when their epoch was split.
                arrivals[host].append((entry, False))
            else:
                remaining.append((release, host, entry))
        self._deferred = remaining
        if not flush:
            for stream, partition in self._sources:
                host = self._directory.host_of(partition)
                batch = raw[stream][partition]
                count = len(batch)
                if count == 0:
                    continue
                if self._faults.active(SKIP, host, index) is not None:
                    # Host down: the NIC's rows are lost before the queue.
                    recorder.record_fault(host, SKIP, count)
                    rows_in[host] += count
                    dropped[host] += count
                    continue
                if self._faults.active(DUPLICATE, host, index) is not None:
                    recorder.record_fault(host, DUPLICATE, count)
                    batch = ColumnBatch.concat([batch, batch])
                delay_fault = self._faults.active(DELAY, host, index)
                if delay_fault is not None:
                    recorder.record_fault(host, DELAY, len(batch))
                    self._deferred.append(
                        (
                            index + delay_fault.delay,
                            host,
                            _Entry(stream, partition, epoch, batch),
                        )
                    )
                    accepted[stream] += count
                    continue
                arrivals[host].append(
                    (_Entry(stream, partition, epoch, batch), True)
                )
                accepted[stream] += count
        self._delivered = {}
        for host in self._hosts:
            self._step_host(
                host, arrivals[host], rows_in, dropped, accepted, flush
            )
        self._refresh_floors()
        return accepted

    def batch(self, stream: str, partition: int) -> ColumnBatch:
        # Reassembles, in order, deliveries flow control split or deferred.
        pieces = self._delivered.get((stream, partition))
        if not pieces:
            return ColumnBatch({}, 0)
        if len(pieces) == 1:
            return pieces[0]
        return ColumnBatch.concat(pieces)

    def watermark_bound(self, stream, partition, next_bound):
        floor = self._floors.get((stream, partition))
        if floor is None:
            return next_bound
        return min(floor, next_bound)

    def resident_rows(self) -> int:
        queued = sum(
            len(entry.batch)
            for queue in self._queues.values()
            for entry in queue
        )
        deferred = sum(len(entry.batch) for _, _, entry in self._deferred)
        return queued + deferred

    # -- per-host queue mechanics ----------------------------------------------

    def _step_host(self, host, arrivals, rows_in, dropped, accepted, flush):
        """Admit one step's arrivals to ``host`` and deliver its budget."""
        policy = self._policy
        queue = self._queues[host]
        # Admission.  drop-newest refuses rows beyond the step budget here
        # — a refused *fresh* row was never accepted, so the splitter
        # cursor is restored to the accept point (see module docstring);
        # refused deferred rows already advanced the cursor in their own
        # epoch and only count as drops.
        room = math.inf
        if not flush and policy is not None and policy.mode == DROP_NEWEST:
            room = max(0, policy.capacity - sum(len(e.batch) for e in queue))
        for entry, fresh in arrivals:
            count = len(entry.batch)
            rows_in[host] += count
            if count <= room:
                queue.append(entry)
                room -= count
                continue
            admit = int(room)
            refused = count - admit
            if admit:
                head, _ = take_prefix(entry.batch, admit)
                queue.append(
                    _Entry(entry.stream, entry.partition, entry.epoch, head)
                )
            dropped[host] += refused
            room = 0
            if fresh:
                accepted[entry.stream] -= refused
        # drop-oldest evicts from the front until the backlog fits.
        if not flush and policy is not None and policy.mode == DROP_OLDEST:
            excess = sum(len(e.batch) for e in queue) - policy.capacity
            while excess > 0 and queue:
                entry = queue[0]
                count = len(entry.batch)
                if count <= excess:
                    queue.popleft()
                    dropped[host] += count
                    excess -= count
                else:
                    _, entry.batch = take_prefix(entry.batch, excess)
                    dropped[host] += excess
                    excess = 0
        # Delivery: up to the step budget, FIFO; the flush drains fully.
        budget = math.inf
        if not flush and policy is not None:
            budget = policy.capacity
        delivered = 0
        while queue and budget > 0:
            entry = queue[0]
            count = len(entry.batch)
            if count <= budget:
                queue.popleft()
                self._deliver(entry.stream, entry.partition, entry.batch)
                delivered += count
                budget -= count
            else:
                head, entry.batch = take_prefix(entry.batch, int(budget))
                self._deliver(entry.stream, entry.partition, head)
                delivered += int(budget)
                budget = 0
        backlog = sum(len(entry.batch) for entry in queue)
        self._recorder.record_ingest(
            host, rows_in[host], delivered, dropped[host], backlog
        )

    def _deliver(self, stream: str, partition: int, batch: ColumnBatch) -> None:
        self._delivered.setdefault((stream, partition), []).append(batch)

    def _refresh_floors(self) -> None:
        """Oldest withheld epoch per source — the watermark stall point."""
        floors: Dict[SourceKey, float] = {}
        withheld = [
            entry for queue in self._queues.values() for entry in queue
        ]
        withheld.extend(entry for _, _, entry in self._deferred)
        for entry in withheld:
            key = (entry.stream, entry.partition)
            current = floors.get(key)
            if current is None or entry.epoch < current:
                floors[key] = entry.epoch
        self._floors = floors


def create_ingest_controller(
    plan: DistributedPlan,
    recorder: "MetricsRecorder",
    policy: Optional[QueuePolicy],
    faults: Optional[FaultPlan],
    directory: PartitionDirectory,
) -> IngestController:
    """The pass-through controller unless flow control is requested;
    the queued one routes each arrival to ``directory``'s host.

    Membership (``leave``/``join``) faults are stripped here — they are
    the rebalance controller's input, not the ingest layer's — so a plan
    holding only membership faults keeps the pass-through path (and its
    absence of per-host flow accounting).
    """
    ingest_faults: Optional[FaultPlan] = None
    if faults:
        kept = tuple(
            fault for fault in faults.faults
            if fault.kind not in MEMBERSHIP_KINDS
        )
        if kept:
            ingest_faults = FaultPlan(kept)
    if policy is None and ingest_faults is None:
        return IngestController()
    return QueuedIngestController(
        plan, recorder, policy, ingest_faults, directory
    )
