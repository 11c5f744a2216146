"""The streaming cost model of paper §4.2.1.

The cost of a query execution plan under a candidate partitioning set PS is
the **maximum amount of data any single node receives over the network
during one time epoch**.  The model needs, per query node:

* ``selectivity_factor`` — expected output tuples per input tuple per epoch;
* ``out_tuple_size`` — bytes per output tuple (taken from the schema);
* recursively, ``input_rate`` (= stream rate R at the leaves, else the sum
  of children's output rates) and ``output_rate``.

Given PS, nodes split into *leaf-resident* (compatible with PS, all inputs
leaf-resident — they run partitioned on the leaf hosts) and *central*
(everything else).  Network cost:

* a central node pays the output rate of each leaf-resident child (those
  results cross the network) — for a child that is a raw source this is the
  full stream rate, the paper's ``input_rate(Qi) if Qi incompatible``;
* a leaf-resident node whose parent is central (or which is a root) has its
  unioned output received centrally — the paper's ``output_rate(Qi) if Qi
  compatible``;
* everything else is local: cost 0.

``cost(Qplan, PS) = max_i cost(Q_i)`` — minimize the worst single node, not
the average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..engine.aggregates import partial_row_width
from ..engine.sketches import node_summary_bytes
from ..gsql.analyzer import AnalyzedNode, NodeKind
from ..plan.dag import QueryDag
from .compatibility import CompatibilityBasis, node_basis
from .partition_set import PartitioningSet

# Fallback selectivity factors by node kind, used when neither the workload
# nor the node supplies a measurement.  Aggregations over packet streams
# compress heavily (many packets per flow); selections and joins default to
# mild reduction.  These are deliberately coarse: the paper's point is that
# the model only needs to rank candidate partitionings, not predict load.
DEFAULT_SELECTIVITY = {
    NodeKind.SELECTION: 1.0,
    NodeKind.AGGREGATION: 0.1,
    NodeKind.JOIN: 0.5,
    NodeKind.UNION: 1.0,
}


@dataclass
class NodeCost:
    """Per-node rates and the network cost under one partitioning set."""

    name: str
    input_tuples: float
    output_tuples: float
    input_bytes: float
    output_bytes: float
    leaf_resident: bool
    network_bytes: float


@dataclass
class PlanCost:
    """Result of costing a whole plan under one partitioning set."""

    partitioning: PartitioningSet
    max_network_bytes: float
    per_node: Dict[str, NodeCost] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"cost(PS={self.partitioning}) = {self.max_network_bytes:,.0f} "
            f"bytes/epoch"
        )


class CostModel:
    """Costs candidate partitioning sets for a query DAG.

    Parameters
    ----------
    dag:
        The query DAG being partitioned.
    input_rate:
        Tuples per epoch arriving on each source stream, the paper's R.
    selectivity:
        Optional per-node-name overrides of the selectivity factor —
        typically measured from a trace sample (see
        ``repro.workloads.experiments.measure_selectivities``).
    """

    def __init__(
        self,
        dag: QueryDag,
        input_rate: float,
        selectivity: Optional[Mapping[str, float]] = None,
    ):
        if input_rate <= 0:
            raise ValueError("input_rate must be positive")
        self._dag = dag
        self._input_rate = input_rate
        self._selectivity = dict(selectivity or {})
        self._tuples: Dict[str, float] = {}
        # A node's compatibility basis depends on the node, not on the
        # candidate being costed: derived once per ``exclude_temporal``.
        self._bases: Dict[bool, Dict[str, CompatibilityBasis]] = {}
        # The search re-costs candidates it reaches again: each cost is
        # remembered per (expressions, exclude_temporal).
        self._costs: Dict[Tuple, PlanCost] = {}
        self._compute_rates()

    # -- rates -----------------------------------------------------------------

    def selectivity_factor(self, node: AnalyzedNode) -> float:
        """The node's output-tuples / input-tuples ratio per epoch."""
        if node.name in self._selectivity:
            return self._selectivity[node.name]
        if node.selectivity_hint is not None:
            return node.selectivity_hint
        return DEFAULT_SELECTIVITY.get(node.kind, 1.0)

    def input_tuples(self, name: str) -> float:
        """Tuples per epoch entering node ``name``."""
        return self._input_tuples[name]

    def output_tuples(self, name: str) -> float:
        """Tuples per epoch leaving node ``name``."""
        return self._tuples[name]

    def out_tuple_size(self, name: str) -> int:
        return self._widths[name]

    def output_bytes(self, name: str) -> float:
        return self._output_bytes[name]

    def input_bytes(self, name: str) -> float:
        return self._input_bytes[name]

    def _compute_rates(self) -> None:
        """Every per-node figure that does not depend on the candidate:
        tuples and bytes in and out, and who feeds whom.  A candidate
        decides only residency and hence network bytes."""
        rate = self._input_rate
        self._widths: Dict[str, int] = {}
        self._input_tuples: Dict[str, float] = {}
        self._input_bytes: Dict[str, float] = {}
        self._output_bytes: Dict[str, float] = {}
        self._order: List[Tuple[str, Optional[Tuple[str, ...]]]] = []
        for node in self._dag.nodes():
            name = node.name
            width = self._widths[name] = node.schema.tuple_width()
            if node.kind is NodeKind.SOURCE:
                self._order.append((name, None))
                self._tuples[name] = self._input_tuples[name] = rate
                self._input_bytes[name] = rate * width
            else:
                self._order.append((name, tuple(node.inputs)))
                incoming = sum(self._tuples[child] for child in node.inputs)
                self._input_tuples[name] = incoming
                self._tuples[name] = incoming * self.selectivity_factor(node)
                self._input_bytes[name] = sum(
                    self._output_bytes[child] for child in node.inputs
                )
            self._output_bytes[name] = self._tuples[name] * width
        self._query_nodes = [
            (
                node.name,
                tuple(parent.name for parent in self._dag.parents(node.name)),
                tuple(child.name for child in self._dag.children(node.name)),
            )
            for node in self._dag.query_nodes()
        ]

    # -- plan cost ----------------------------------------------------------------

    def plan_cost(
        self, ps: PartitioningSet, exclude_temporal: bool = True
    ) -> PlanCost:
        """Cost the DAG under partitioning set ``ps`` (§4.2.1)."""
        key = (ps.exprs, exclude_temporal)
        known = self._costs.get(key)
        if known is not None:
            return known
        resident = self._leaf_residency(ps, exclude_temporal)
        out_bytes = self._output_bytes
        per_node: Dict[str, NodeCost] = {}
        worst = 0.0
        for name, parents, children in self._query_nodes:
            if resident[name]:
                # Output crosses the network iff it feeds a central
                # consumer or is a root delivered to the aggregator host.
                if not parents or not all(resident[p] for p in parents):
                    network = out_bytes[name]
                else:
                    network = 0.0
            else:
                # Central node: pays for every child whose data must be
                # shipped in (a source ships the full stream).
                network = 0.0
                for child in children:
                    if resident[child]:
                        network += out_bytes[child]
            per_node[name] = NodeCost(
                name=name,
                input_tuples=self._input_tuples[name],
                output_tuples=self._tuples[name],
                input_bytes=self._input_bytes[name],
                output_bytes=out_bytes[name],
                leaf_resident=resident[name],
                network_bytes=network,
            )
            worst = max(worst, network)
        cost = self._costs[key] = PlanCost(ps, worst, per_node)
        return cost

    def _leaf_residency(
        self, ps: PartitioningSet, exclude_temporal: bool
    ) -> Dict[str, bool]:
        """A node runs on the leaf hosts iff it is compatible with PS and
        every child does too; sources always do (the splitter feeds them)."""
        if exclude_temporal not in self._bases:
            self._bases[exclude_temporal] = {
                node.name: node_basis(node, self._dag, exclude_temporal)
                for node in self._dag.query_nodes()
            }
        bases = self._bases[exclude_temporal]
        residency: Dict[str, bool] = {}
        for name, inputs in self._order:
            if inputs is None:
                residency[name] = True
                continue
            residency[name] = all(residency[child] for child in inputs) and bases[
                name
            ].admits(ps)
        return residency

    # -- sketch transfer ---------------------------------------------------------

    def sub_transfer_bytes(self, name: str) -> float:
        """Bytes/epoch the aggregator receives when ``name`` is split
        SUB/SUPER: one partial row per live group (group-by key widths plus
        the splittable partial states)."""
        return self.output_tuples(name) * partial_row_width(self._dag.node(name))

    def sketch_transfer_bytes(self, name: str, num_sites: int = 1) -> float:
        """Bytes/epoch the aggregator receives when ``name`` ships sketch
        summaries instead of exact partial rows.

        Each site emits one fixed-size :class:`EpochSummary` per pane per
        epoch — Count-Min grids plus a bounded heavy-hitter candidate list —
        so the term depends only on the accuracy clause, never on group
        cardinality.  That data-independence is the whole value of the
        sketch variant: at high cardinality exact SUB rows grow with the
        number of groups while this term stays flat.
        """
        return float(num_sites) * node_summary_bytes(self._dag.node(name))

    def prefers_sketch(self, name: str, num_sites: int = 1) -> bool:
        """True iff the accuracy clause permits sketches for ``name`` AND
        the modeled sketch transfer beats exact SUB/SUPER shipping.

        Never returns True without an accuracy clause — exactness is only
        traded away when the query explicitly priced the trade.
        """
        node = self._dag.node(name)
        if node.accuracy is None:
            return False
        if not all(call.approximate for call in node.aggregates):
            return False
        return self.sketch_transfer_bytes(name, num_sites) < (
            self.sub_transfer_bytes(name)
        )
