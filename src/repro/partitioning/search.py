"""Search for the optimal compatible partitioning set (paper §4.2.2).

The algorithm enumerates reconciliations of per-node compatible sets with
dynamic programming over *node subsets*:

1. every constrained query node contributes its maximal compatible set as a
   singleton candidate;
2. candidate pairs are reconciled, then triples, and so on, keeping the
   minimum-cost partitioning seen at every size;
3. the expansion uses the paper's heuristics — seed only with leaf query
   nodes, and grow a candidate only by an immediate parent of a member or
   by another leaf (a partitioning cannot be compatible with a node while
   incompatible with its ancestors' requirements chain).

Hardware constraints (§1, §3.2: the splitter NIC may only support certain
fields) filter candidates; the search then reports both the unconstrained
optimum and the best *realizable* partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..gsql.analyzer import NodeKind
from ..plan.dag import QueryDag
from .compatibility import compatible_set
from .cost_model import CostModel, PlanCost
from .hardware import HardwareConstraint
from .partition_set import PartitioningSet
from .reconcile import reconcile_partition_sets


@dataclass
class Candidate:
    """One explored point: which nodes were reconciled, the resulting set,
    and its plan cost."""

    nodes: FrozenSet[str]
    ps: PartitioningSet
    cost: PlanCost

    def __str__(self) -> str:
        names = ", ".join(sorted(self.nodes))
        return f"[{names}] -> {self.ps} @ {self.cost.max_network_bytes:,.0f}"


@dataclass
class SearchResult:
    """Outcome of the partitioning search."""

    best: Optional[Candidate]
    best_feasible: Optional[Candidate]
    centralized_cost: PlanCost
    explored: List[Candidate] = field(default_factory=list)

    @property
    def partitioning(self) -> PartitioningSet:
        """The recommended partitioning: the cheapest one the hardware can
        compute (without a constraint, the optimum), else the empty set —
        round-robin splitting."""
        if self.best_feasible is None:
            return PartitioningSet.empty()
        return self.best_feasible.ps

    def summary(self) -> str:
        lines = [f"explored {len(self.explored)} candidate partitionings"]
        lines.append(
            f"centralized cost: {self.centralized_cost.max_network_bytes:,.0f} bytes/epoch"
        )
        if self.best is not None:
            lines.append(f"optimal: {self.best}")
            if self.best_feasible is None:
                lines.append(
                    "no hardware-feasible partitioning exists: "
                    "round-robin splitting"
                )
            elif self.best_feasible is not self.best:
                lines.append(f"best hardware-feasible: {self.best_feasible}")
        return "\n".join(lines)


class PartitioningSearch:
    """Runs the §4.2.2 dynamic program for one query DAG."""

    def __init__(
        self,
        dag: QueryDag,
        cost_model: CostModel,
        hardware: Optional[HardwareConstraint] = None,
        exclude_temporal: bool = True,
        max_rounds: Optional[int] = None,
        beam_width: int = 64,
    ):
        """``beam_width`` bounds the dynamic program: each round keeps the
        cheapest ``beam_width`` states, and states are deduplicated by
        their reconciled partitioning set (two node subsets yielding the
        same set explore the same futures).  The paper's example query
        sets explore a handful of states and are unaffected; the bound
        keeps 50-query deployments (one of the paper's applications runs
        50 simultaneous queries) tractable."""
        self._dag = dag
        self._cost_model = cost_model
        self._hardware = hardware
        self._exclude_temporal = exclude_temporal
        self._max_rounds = max_rounds
        if beam_width <= 0:
            raise ValueError("beam_width must be positive")
        self._beam_width = beam_width

    def run(self) -> SearchResult:
        """Execute the search and return the winning partitioning set."""
        node_sets = self._per_node_sets()
        centralized = self._cost_model.plan_cost(
            PartitioningSet.empty(), self._exclude_temporal
        )
        explored: List[Candidate] = []
        seen_ps: Set[Tuple] = set()

        def record(nodes: FrozenSet[str], ps: PartitioningSet) -> Optional[Candidate]:
            if ps.is_empty:
                return None
            cost = self._cost_model.plan_cost(ps, self._exclude_temporal)
            candidate = Candidate(nodes, ps, cost)
            if ps.exprs not in seen_ps:
                seen_ps.add(ps.exprs)
                explored.append(candidate)
                # Also consider the candidate projected onto the hardware's
                # capabilities: any subset of a compatible set stays
                # compatible (§3.5), so a realizable subset is a sound —
                # and sometimes the only deployable — alternative.
                if self._hardware is not None and not self._feasible(ps):
                    projected = self._hardware.feasible_subset(ps)
                    if not projected.is_empty and projected.exprs not in seen_ps:
                        seen_ps.add(projected.exprs)
                        explored.append(
                            Candidate(
                                nodes,
                                projected,
                                self._cost_model.plan_cost(
                                    projected, self._exclude_temporal
                                ),
                            )
                        )
            return candidate

        # Round 1: leaf-node singletons (heuristic: "only consider leaf
        # nodes for a set of initial candidates").
        leaves = {n.name for n in self._dag.leaf_queries() if n.name in node_sets}
        frontier: Dict[Tuple, Candidate] = {}
        for name in sorted(leaves):
            candidate = record(frozenset({name}), node_sets[name])
            if candidate is not None:
                frontier.setdefault(candidate.ps.exprs, candidate)
        # Non-leaf constrained nodes can still seed when no constrained leaf
        # exists (e.g. the only aggregation sits above a selection).
        if not frontier:
            for name in sorted(node_sets):
                candidate = record(frozenset({name}), node_sets[name])
                if candidate is not None:
                    frontier.setdefault(candidate.ps.exprs, candidate)

        rounds = 0
        visited_states: Set[Tuple] = set(frontier)
        while frontier:
            rounds += 1
            if self._max_rounds is not None and rounds >= self._max_rounds:
                break
            next_frontier: Dict[Tuple, Candidate] = {}
            for candidate in frontier.values():
                nodes = candidate.nodes
                for addition in sorted(self._expansions(nodes, leaves, node_sets)):
                    reconciled = reconcile_partition_sets(
                        candidate.ps, node_sets[addition]
                    )
                    if reconciled.is_empty:
                        continue
                    expanded_nodes = nodes | {addition}
                    if reconciled.exprs == candidate.ps.exprs:
                        # The addition is already satisfied by this set:
                        # absorb it (widening future expansions) without
                        # spawning a new state.
                        key = candidate.ps.exprs
                        existing = next_frontier.get(key)
                        merged = Candidate(
                            expanded_nodes
                            | (existing.nodes if existing else frozenset()),
                            candidate.ps,
                            candidate.cost,
                        )
                        next_frontier[key] = merged
                        continue
                    if reconciled.exprs in visited_states:
                        continue
                    expanded = record(expanded_nodes, reconciled)
                    if expanded is not None:
                        visited_states.add(reconciled.exprs)
                        next_frontier[reconciled.exprs] = expanded
            # Beam bound: keep the cheapest states for the next round.
            if len(next_frontier) > self._beam_width:
                kept = sorted(
                    next_frontier.values(),
                    key=lambda c: c.cost.max_network_bytes,
                )[: self._beam_width]
                next_frontier = {c.ps.exprs: c for c in kept}
            frontier = next_frontier

        best = self._argmin(explored)
        feasible = [c for c in explored if self._feasible(c.ps)]
        best_feasible = self._argmin(feasible)
        return SearchResult(best, best_feasible, centralized, explored)

    # -- helpers ---------------------------------------------------------------

    def _per_node_sets(self) -> Dict[str, PartitioningSet]:
        """Maximal compatible set per constrained query node (step 1)."""
        sets: Dict[str, PartitioningSet] = {}
        for node in self._dag.query_nodes():
            ps = compatible_set(node, self._dag, self._exclude_temporal)
            if ps is None:  # always-compatible: imposes no requirement
                continue
            if not ps.is_empty:
                sets[node.name] = ps
        return sets

    def _expansions(
        self,
        nodes: FrozenSet[str],
        leaves: Set[str],
        node_sets: Dict[str, PartitioningSet],
    ) -> Set[str]:
        """Nodes eligible to join a candidate set: an immediate parent of a
        member (transitively through unconstrained nodes) or another leaf."""
        eligible: Set[str] = set(leaves)
        for name in nodes:
            for parent in self._constrained_ancestors(name, node_sets):
                eligible.add(parent)
        return {name for name in eligible if name in node_sets} - set(nodes)

    def _constrained_ancestors(
        self, name: str, node_sets: Dict[str, PartitioningSet]
    ) -> Set[str]:
        """Nearest constrained parents, skipping always-compatible nodes
        (a selection between two aggregations shouldn't block expansion)."""
        found: Set[str] = set()
        stack = [p.name for p in self._dag.parents(name)]
        while stack:
            current = stack.pop()
            if current in node_sets:
                found.add(current)
            else:
                node = self._dag.node(current)
                if node.kind is not NodeKind.SOURCE:
                    stack.extend(p.name for p in self._dag.parents(current))
        return found

    def _feasible(self, ps: PartitioningSet) -> bool:
        if self._hardware is None:
            return True
        return self._hardware.supports(ps)

    @staticmethod
    def _argmin(candidates: List[Candidate]) -> Optional[Candidate]:
        best: Optional[Candidate] = None
        for candidate in candidates:
            if best is None or candidate.cost.max_network_bytes < (
                best.cost.max_network_bytes
            ):
                best = candidate
        return best


def choose_partitioning(
    dag: QueryDag,
    input_rate: float,
    selectivity=None,
    hardware: Optional[HardwareConstraint] = None,
    exclude_temporal: bool = True,
) -> SearchResult:
    """One-call convenience API: cost model + search in one step."""
    model = CostModel(dag, input_rate, selectivity)
    search = PartitioningSearch(dag, model, hardware, exclude_temporal)
    return search.run()
