"""Cluster substrate: hosts, network, splitters, and the simulator."""

from .balance import BalanceReport, compare_balance, partition_balance
from .costs import CAPACITY_PER_TUPLE_BUDGET, DEFAULT_COSTS, CostTable, default_capacity
from .host import Host
from .network import NetworkMeter
from .simulator import (
    ClusterSimulator,
    FaultPlan,
    QueuePolicy,
    RebalanceLog,
    RebalancePolicy,
    RunOptions,
    SimulationResult,
    Timeline,
)
from .splitter import HashSplitter, RoundRobinSplitter, Splitter

__all__ = [
    "BalanceReport",
    "CAPACITY_PER_TUPLE_BUDGET",
    "compare_balance",
    "partition_balance",
    "ClusterSimulator",
    "CostTable",
    "DEFAULT_COSTS",
    "FaultPlan",
    "HashSplitter",
    "Host",
    "NetworkMeter",
    "QueuePolicy",
    "RebalanceLog",
    "RebalancePolicy",
    "RoundRobinSplitter",
    "RunOptions",
    "SimulationResult",
    "Splitter",
    "Timeline",
    "default_capacity",
]
