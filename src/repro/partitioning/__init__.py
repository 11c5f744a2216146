"""Query-aware partitioning: compatibility, reconciliation, cost, search."""

from .compatibility import (
    CompatibilityBasis,
    compatible_nodes,
    compatible_set,
    is_compatible,
    node_basis,
    temporal_attributes,
)
from .cost_model import CostModel, NodeCost, PlanCost
from .hardware import (
    AnyPartitioning,
    ExpressionWhitelist,
    FieldsConstraint,
    HardwareConstraint,
    tcp_header_splitter,
)
from .partition_set import PartitioningSet, subset_sets
from .reconcile import reconcile_all, reconcile_partition_sets
from .search import Candidate, PartitioningSearch, SearchResult, choose_partitioning

__all__ = [
    "AnyPartitioning",
    "Candidate",
    "CompatibilityBasis",
    "CostModel",
    "ExpressionWhitelist",
    "FieldsConstraint",
    "HardwareConstraint",
    "NodeCost",
    "PartitioningSearch",
    "PartitioningSet",
    "PlanCost",
    "SearchResult",
    "choose_partitioning",
    "compatible_nodes",
    "compatible_set",
    "is_compatible",
    "node_basis",
    "reconcile_all",
    "reconcile_partition_sets",
    "subset_sets",
    "tcp_header_splitter",
    "temporal_attributes",
]
