"""Cluster placement configuration for distributed plans.

The paper's experiments use 1-4 hosts with two stream partitions assigned
per host (one per core of the dual-core Xeons), and designate the host
executing the root of the query tree as the *aggregator node*; the others
are *leaf nodes* (§6.1).  :class:`Placement` captures those choices.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Placement:
    """How partitions and the aggregator map onto hosts."""

    num_hosts: int
    partitions_per_host: int = 2
    aggregator: int = 0
    # Whether leaf hosts merge their local partitions before running
    # per-host operators.  The paper's "Optimized" configuration (§6.1)
    # partially aggregates "all the host's data (from multiple partitions)"
    # — per-host merging on; the "Naive" configuration pre-aggregates
    # within each partition separately — per-host merging off.
    merge_local_partitions: bool = True

    def __post_init__(self):
        if self.num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        if self.partitions_per_host <= 0:
            raise ValueError("partitions_per_host must be positive")
        if not 0 <= self.aggregator < self.num_hosts:
            raise ValueError("aggregator must be one of the hosts")

    @property
    def num_partitions(self) -> int:
        return self.num_hosts * self.partitions_per_host

    def host_of_partition(self, partition: int) -> int:
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"partition {partition} out of range")
        return partition // self.partitions_per_host
