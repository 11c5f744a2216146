"""Adaptive repartitioning under skew: mid-stream partition migration.

The paper commits to one query-aware partitioning offline (§3.3, §4.2.1)
and relies on hash partitioning to spread load evenly — while conceding
(§2, the FLUX citation) that key skew breaks exactly that assumption.
This module closes the loop at runtime: a :class:`RebalanceController`
watches per-host load epoch by epoch and, at watermark-aligned epoch
boundaries, migrates hot partitions to cooler hosts.

The crucial invariant is that a migration changes only *where* work
runs, never *what* runs: the dataflow DAG, the splitting function, and
every per-node input order are untouched.  The run's
:class:`~repro.runtime.flowcontrol.PartitionDirectory` maps each
partition to its current host; a plan node whose coverage lives
entirely on its static home host (a source, a pushed per-partition
operator, a host-local merge) is *movable* and is charged on whichever
host the directory says its partitions live on.  Central merges and
SUPER aggregates stay pinned.  Because the routed batches and their
order are identical, streaming output with rebalancing active is
byte-identical to a one-shot run (the randomized parity harness asserts
this), and in-process vs. parallel execution make the same migration
decisions from the same accounting.

Partitions that share a movable multi-partition node (e.g. a host-local
merge under ``merge_local_partitions=True``) must stay co-resident, so
the planner moves *co-movement groups*, not single partitions.  When the
hottest group is atomic — one partition holding the skewed keys — no
migration helps; the controller then consults the paper's own machinery
(:mod:`repro.partitioning.reconcile` over the per-query compatible sets
from :mod:`repro.partitioning.compatibility`) and records an advisory
recommending a finer compatible partitioning set.

Elastic membership rides on the fault machinery: ``leave``/``join``
faults (:mod:`repro.runtime.flowcontrol`) shrink or grow the present
host set by epoch step; a departing host's groups are forcibly
evacuated (trigger and cooldown do not apply), a joining host receives
load through an immediate spread pass.

Migration is bookkeeping: nothing moves between processes.  Open
window and join state stays in the node that holds it, and the
controller prices the simulated handoff from the executor's
buffered-row counts (:meth:`~repro.runtime.session.StepExecutor.buffered`)
as an ordinary network transfer from the old host to the new one.
The controller is built for every run and drives the loop through two
calls, :meth:`RebalanceController.before_step` and
:meth:`RebalanceController.after_step`; without a policy both return at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..cluster.balance import BalanceReport
from ..distopt.plan_ir import DistKind, DistNode, DistributedPlan
from ..partitioning.compatibility import compatible_set
from ..partitioning.partition_set import PartitioningSet
from ..partitioning.reconcile import reconcile_all
from .flowcontrol import JOIN, LEAVE, MEMBERSHIP_KINDS, FaultPlan, PartitionDirectory

if TYPE_CHECKING:
    from ..plan.dag import QueryDag
    from .metrics import MetricsRecorder
    from .session import SourceFeed, StepExecutor


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how aggressively the controller migrates partitions.

    ``threshold`` is the host ``max_over_mean`` ratio (over the present
    hosts) that counts an epoch as hot; after ``window`` consecutive hot
    epochs the controller plans a rebalance at the next epoch boundary,
    then holds off for ``cooldown`` epochs so the smoothed load signal
    can settle.  One rebalance moves at most ``max_moves`` co-movement
    groups and is committed only when the projected peak-load reduction
    reaches ``min_gain`` (relative).  ``smoothing`` is the EWMA weight of
    the newest epoch in the per-partition load estimate.
    """

    threshold: float = 1.25
    window: int = 2
    cooldown: int = 2
    max_moves: int = 4
    min_gain: float = 0.05
    smoothing: float = 0.5

    def __post_init__(self):
        if self.threshold < 1.0:
            raise ValueError("threshold is a max/mean ratio and must be >= 1.0")
        if self.window < 1:
            raise ValueError("window must be >= 1 epoch")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0 epochs")
        if self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        if not 0.0 <= self.min_gain < 1.0:
            raise ValueError("min_gain must be in [0, 1)")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")

    def describe(self) -> str:
        return (
            f"rebalance when max/mean >= {self.threshold:g} for "
            f"{self.window} epoch(s), cooldown {self.cooldown}, "
            f"<= {self.max_moves} move(s) per pass"
        )


@dataclass
class Migration:
    """One co-movement group changing hosts at one epoch boundary."""

    partitions: Tuple[int, ...]
    src: int
    dst: int
    reason: str
    step: int = -1
    #: Buffered window/join rows handed off with the group.
    state_rows: int = 0

    def describe(self) -> str:
        parts = ",".join(str(p) for p in self.partitions)
        return (
            f"step {self.step}: partition(s) {parts} "
            f"h{self.src} -> h{self.dst} ({self.reason}"
            + (f", {self.state_rows} buffered rows" if self.state_rows else "")
            + ")"
        )


@dataclass
class RebalanceLog:
    """What one run's controller observed and did."""

    triggers: int = 0
    migrations: List[Migration] = field(default_factory=list)
    advisories: List[str] = field(default_factory=list)
    #: Final partition -> host mapping at the end of the run.
    assignment: Dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"rebalancer: {self.triggers} trigger(s), "
            f"{len(self.migrations)} migration(s)"
        ]
        lines.extend("  " + move.describe() for move in self.migrations)
        for advice in self.advisories:
            lines.append(f"  advice: {advice}")
        return "\n".join(lines)


class RebalanceController:
    """Observes per-host load and plans epoch-boundary migrations.

    Built for every run, it is the only writer of the run's
    :class:`~repro.runtime.flowcontrol.PartitionDirectory`.  The session
    calls :meth:`before_step` before each epoch's rows are split and
    :meth:`after_step` once the step's charges are replayed; without a
    policy both return at once and :attr:`log` is None.  All inputs —
    delivered rows per partition, per-epoch host CPU, queue backlog —
    are identical across execution modes, so migration decisions are too.
    """

    def __init__(
        self,
        plan: DistributedPlan,
        policy: Optional[RebalancePolicy],
        recorder: "MetricsRecorder",
        width: Callable[[DistNode], float],
        faults: Optional[FaultPlan] = None,
        dag: Optional["QueryDag"] = None,
        partitioning: Optional[PartitioningSet] = None,
    ):
        self.directory = PartitionDirectory(plan)
        #: What the controller observed and did; None without a policy.
        self.log: Optional[RebalanceLog] = None
        if policy is None:
            return
        self._plan = plan
        self._policy = policy
        self._recorder = recorder
        self._width = width
        self._dag = dag
        self._partitioning = partitioning
        self.log = RebalanceLog(assignment=self.directory.assignment())
        self._membership = tuple(
            fault
            for fault in (faults.faults if faults is not None else ())
            if fault.kind in MEMBERSHIP_KINDS
        )
        self._check_membership()
        self._sources = [
            (node.node_id, min(node.partitions))
            for node in self.directory.movable.values()
            if node.kind is DistKind.SOURCE
        ]
        # Co-movement groups: partitions sharing a movable multi-partition
        # node (a host-local merge binds its host's partitions together)
        # migrate as one unit, so no movable node's coverage ever spans
        # two hosts.  Union-find over partitions.
        parent = list(range(plan.num_partitions))

        def find(p: int) -> int:
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for node in self.directory.movable.values():
            anchor = find(min(node.partitions))
            for partition in node.partitions:
                parent[find(partition)] = anchor
        roots: Dict[int, List[int]] = {}
        for partition in range(plan.num_partitions):
            roots.setdefault(find(partition), []).append(partition)
        self._groups: List[Tuple[int, ...]] = [
            tuple(sorted(members))
            for _, members in sorted(roots.items())
        ]
        # EWMA of delivered rows per partition; the planning weight.
        self._weights: List[float] = [0.0] * plan.num_partitions
        self._backlog: Dict[int, int] = {}
        self._hot_streak = 0
        self._cooldown_until = 0
        self._last_ratio = float("nan")
        self._prev_present: Optional[Set[int]] = None

    # -- the session-facing surface -------------------------------------------

    def before_step(self, index: int, executor: "StepExecutor") -> None:
        """Plan and commit the migrations of the boundary before epoch
        step ``index``.

        The directory changes after the previous epoch's bucket closed and
        before this epoch's rows are split, so fresh arrivals route
        straight to the new homes.  Each re-homed node's buffered rows are
        charged as a network transfer from its old host to its new one;
        the node itself keeps running where it always has.
        """
        if self.log is None:
            return
        moves = self._plan_step(index)
        if not moves:
            return
        directory = self.directory
        before = dict(directory.node_host)
        for move in moves:
            for partition in move.partitions:
                directory.assign(partition, move.dst)
        changed = sorted(
            node_id
            for node_id, host in directory.node_host.items()
            if host != before[node_id]
        )
        move_of_partition = {
            partition: move for move in moves for partition in move.partitions
        }
        buffered = executor.buffered(changed)
        for node_id in changed:
            rows = buffered[node_id]
            if not rows:
                continue
            node = directory.movable[node_id]
            widths = [
                self._width(self._plan.node(child_id)) for child_id in node.inputs
            ]
            self._recorder.record_transfer(
                before[node_id],
                directory.node_host[node_id],
                rows,
                max(widths) if widths else self._width(node),
            )
            move_of_partition[min(node.partitions)].state_rows += rows
        for move in moves:
            move.step = index
            self.log.migrations.append(move)
            self._recorder.record_rebalance(
                "migration",
                step=index,
                partitions=list(move.partitions),
                src=move.src,
                dst=move.dst,
                reason=move.reason,
                state_rows=move.state_rows,
            )
        self.log.assignment = directory.assignment()
        self._recorder.record_rebalance(
            "complete", step=index, moves=len(moves), moved=directory.moved,
        )

    def after_step(self, index: int, sources: "SourceFeed") -> None:
        """Fold step ``index``'s delivered rows per partition into the
        load estimate and arm the trigger when the present hosts stay
        imbalanced."""
        if self.log is None:
            return
        alpha = self._policy.smoothing
        partition_rows = [0] * len(self._weights)
        for node_id, partition in self._sources:
            partition_rows[partition] += len(sources[node_id][0])
        for partition, rows in enumerate(partition_rows):
            self._weights[partition] = (
                alpha * rows + (1.0 - alpha) * self._weights[partition]
            )
        self._backlog = {
            host: stats.rows_queued[-1]
            for host, stats in self._recorder.flow_stats.items()
            if stats.rows_queued
        }
        present = self._present(index)
        loads = self._host_loads(present)
        report = BalanceReport(
            [round(weight, 6) for weight in self._weights],
            [loads[host] for host in sorted(present)],
        )
        ratios = [report.host_max_over_mean, self._cpu_ratio(present)]
        finite = [ratio for ratio in ratios if not math.isnan(ratio)]
        self._last_ratio = max(finite) if finite else float("nan")
        if finite and max(finite) >= self._policy.threshold:
            self._hot_streak += 1
        else:
            self._hot_streak = 0

    # -- internals -------------------------------------------------------------

    def _plan_step(self, index: int) -> List[Migration]:
        """Migrations to apply at the boundary before epoch step ``index``."""
        present = self._present(index)
        loads = self._host_loads(present)
        moves = self._evacuations(present, loads)
        grown = (
            self._prev_present is not None
            and bool(present - self._prev_present)
        )
        self._prev_present = present
        if len(present) > 1 and (
            grown
            or (
                self._hot_streak >= self._policy.window
                and index >= self._cooldown_until
            )
        ):
            reason = "membership" if grown else "rebalance"
            if not grown:
                self.log.triggers += 1
                self._recorder.record_rebalance(
                    "trigger",
                    ratio=round(self._last_ratio, 4),
                    streak=self._hot_streak,
                    step=index,
                )
            planned = self._balance_moves(loads, present, reason)
            if planned:
                moves.extend(planned)
            elif not grown:
                self._advise()
            self._hot_streak = 0
            self._cooldown_until = index + self._policy.cooldown
        if moves:
            self._recorder.record_rebalance(
                "plan",
                step=index,
                moves=[
                    {
                        "partitions": list(move.partitions),
                        "src": move.src,
                        "dst": move.dst,
                        "reason": move.reason,
                    }
                    for move in moves
                ],
            )
        return moves

    def _check_membership(self) -> None:
        for fault in self._membership:
            if fault.host == self._plan.aggregator:
                raise ValueError(
                    f"host {fault.host} is the aggregator and cannot "
                    "leave or join mid-stream"
                )
            if fault.kind == LEAVE:
                stuck = [
                    node.node_id
                    for node in self._plan.topological()
                    if node.host == fault.host
                    and node.node_id not in self.directory.movable
                ]
                if stuck:
                    raise ValueError(
                        f"host {fault.host} cannot leave: it runs "
                        f"non-migratable node(s) {stuck}"
                    )

    def _present(self, index: int) -> Set[int]:
        """Hosts in the cluster at epoch step ``index``."""
        present = set(range(self._plan.num_hosts))
        for fault in self._membership:
            if fault.kind == LEAVE and fault.active(index):
                present.discard(fault.host)
            elif fault.kind == JOIN and index < fault.first_epoch:
                present.discard(fault.host)
        return present

    def _group_weight(self, group_index: int) -> float:
        return sum(self._weights[p] for p in self._groups[group_index])

    def _host_loads(self, present: Set[int]) -> Dict[int, float]:
        loads = {host: float(self._backlog.get(host, 0)) for host in present}
        for index, group in enumerate(self._groups):
            host = self.directory.host_of(group[0])
            if host in loads:
                loads[host] += self._group_weight(index)
        return loads

    def _cpu_ratio(self, present: Set[int]) -> float:
        """max/mean of the latest per-epoch CPU buckets (NaN when idle)."""
        values = []
        for host in sorted(present):
            series = self._recorder.hosts[host].epoch_cpu
            values.append(series[-1] if series else 0.0)
        if not values:
            return float("nan")
        mean = sum(values) / len(values)
        if mean == 0:
            return float("nan")
        return max(values) / mean

    def _evacuations(
        self, present: Set[int], loads: Dict[int, float]
    ) -> List[Migration]:
        """Forced moves off absent hosts (ahead of trigger/cooldown)."""
        moves: List[Migration] = []
        counts = {host: 0 for host in present}
        for index, group in enumerate(self._groups):
            host = self.directory.host_of(group[0])
            if host in counts:
                counts[host] += 1
        for index, group in enumerate(self._groups):
            src = self.directory.host_of(group[0])
            if src in present:
                continue
            dst = min(present, key=lambda h: (loads[h], counts[h], h))
            moves.append(Migration(group, src, dst, "evacuate"))
            loads[dst] += self._group_weight(index)
            counts[dst] += 1
        return moves

    def _balance_moves(
        self, loads: Dict[int, float], present: Set[int], reason: str
    ) -> List[Migration]:
        """Greedy peak-shaving: repeatedly move the group that most
        reduces the maximum present-host load; all-or-nothing against
        ``min_gain`` (the mean is move-invariant, so peak reduction and
        ratio reduction are the same test)."""
        work = dict(loads)
        group_host = {
            index: self.directory.host_of(group[0])
            for index, group in enumerate(self._groups)
        }
        start_max = max(work.values())
        if start_max <= 0:
            return []
        planned: List[Migration] = []
        while len(planned) < self._policy.max_moves:
            current_max = max(work.values())
            hot = min(host for host in work if work[host] == current_max)
            best: Optional[Tuple[float, int, int]] = None
            for index, group in enumerate(self._groups):
                if group_host[index] != hot:
                    continue
                weight = self._group_weight(index)
                if weight <= 0:
                    continue
                for dst in sorted(present):
                    if dst == hot:
                        continue
                    rest = max(
                        (
                            value
                            for host, value in work.items()
                            if host != hot and host != dst
                        ),
                        default=0.0,
                    )
                    new_max = max(work[hot] - weight, work[dst] + weight, rest)
                    if new_max >= current_max - 1e-9:
                        continue
                    if best is None or (new_max, index, dst) < best:
                        best = (new_max, index, dst)
            if best is None:
                break
            _, index, dst = best
            weight = self._group_weight(index)
            work[hot] -= weight
            work[dst] += weight
            planned.append(
                Migration(self._groups[index], hot, dst, reason)
            )
            group_host[index] = dst
        final_max = max(work.values())
        if planned and (start_max - final_max) / start_max < self._policy.min_gain:
            return []
        return planned

    def _advise(self) -> None:
        """The hot group is atomic: migrating cannot split it.  Re-derive
        the queries' compatible sets and recommend a finer one if the
        reconcile machinery finds it (paper §4.1 applied live)."""
        message = (
            "hot partition group is atomic under the current partitioning; "
            "migration cannot split it"
        )
        if self._dag is not None:
            sets = []
            for node in self._dag.query_nodes():
                candidate = compatible_set(node, self._dag)
                if candidate is not None:
                    sets.append(candidate)
            finer = reconcile_all(sets) if sets else PartitioningSet.empty()
            current_size = (
                len(self._partitioning) if self._partitioning is not None else 0
            )
            if not finer.is_empty and len(finer) > current_size:
                message += (
                    f"; the reconciled compatible set {finer} is finer than "
                    "the deployed one and would spread the hot keys"
                )
            else:
                message += (
                    "; no finer partitioning set is compatible with every "
                    "query (reconcile came back "
                    + (str(finer) if not finer.is_empty else "empty")
                    + ")"
                )
        if self.log.advisories and self.log.advisories[-1] == message:
            return  # the situation has not changed; don't repeat ourselves
        self.log.advisories.append(message)
        self._recorder.record_rebalance("advice", message=message)
