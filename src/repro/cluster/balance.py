"""Load-balance analysis for partitioning schemes.

The paper's premise is that hash partitioning "distribute[s] tuples evenly
across multiple distributed nodes" (§3.3) and notes the FLUX work exists
precisely because data skew can break that (§2), and that temporal
attributes make poor balancing keys (§3.5.1).  This module quantifies the
balance a (splitter, trace) pair actually achieves, so deployments can
detect skewed keys *before* committing a partitioning to hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..distopt.placement import Placement
from ..engine.columnar import ColumnBatch, ensure_columns
from .splitter import Splitter


@dataclass(frozen=True)
class BalanceReport:
    """Tuple counts per partition (and per host) with imbalance metrics."""

    partition_counts: List[int]
    host_counts: Optional[List[int]] = None

    def __post_init__(self) -> None:
        # ``host_counts=[]`` used to be indistinguishable from "no host
        # totals" (the falsy check silently fell back to partition-level
        # balance); an empty host list is a caller bug, so reject it.
        if self.host_counts is not None and not self.host_counts:
            raise ValueError(
                "host_counts must be None (no host totals) or non-empty"
            )

    @property
    def total(self) -> int:
        return sum(self.partition_counts)

    @property
    def mean(self) -> float:
        counts = self.partition_counts
        return self.total / len(counts) if counts else 0.0

    @property
    def max_over_mean(self) -> float:
        """Peak-to-average ratio: 1.0 is perfect balance; the busiest
        partition's host saturates ``max_over_mean`` times earlier than a
        balanced one would."""
        mean = self.mean
        if mean == 0:
            return 1.0
        return max(self.partition_counts) / mean

    @property
    def coefficient_of_variation(self) -> float:
        """Relative standard deviation across partitions."""
        counts = self.partition_counts
        mean = self.mean
        if not counts or mean == 0:
            return 0.0
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return sqrt(variance) / mean

    @property
    def host_max_over_mean(self) -> float:
        """Peak-to-average ratio over *hosts* (partition-level when no
        host totals were recorded).

        An all-idle cluster has no meaningful ratio: reporting 1.0 there
        would read as "perfectly balanced" to threshold checks, so it is
        ``nan`` — comparisons against any threshold come back False and
        the caller decides what idle means.
        """
        if self.host_counts is None:
            return self.max_over_mean
        mean = sum(self.host_counts) / len(self.host_counts)
        if mean == 0:
            return float("nan")
        return max(self.host_counts) / mean

    def describe(self) -> str:
        lines = [
            f"partitions: {self.partition_counts}",
            f"max/mean:   {self.max_over_mean:.3f}   "
            f"cv: {self.coefficient_of_variation:.3f}",
        ]
        if self.host_counts is not None:
            lines.append(
                f"hosts:      {self.host_counts}  "
                f"(max/mean {self.host_max_over_mean:.3f})"
            )
        return "\n".join(lines)


def partition_balance(
    splitter: Splitter,
    rows: Union[Sequence[dict], ColumnBatch],
    placement: Optional[Placement] = None,
) -> BalanceReport:
    """Measure the tuple balance a splitter achieves on ``rows``.

    ``rows`` may be a row sequence (converted once) or a
    :class:`ColumnBatch`; it is counted with the splitter's own
    assignment (:meth:`Splitter.assign_indices` + ``np.bincount``).

    With a ``placement``, per-host totals (summing each host's
    partitions) are included — the quantity that actually determines leaf
    CPU balance when hosts own several partitions.
    """
    counts = np.bincount(
        splitter.assign_indices(ensure_columns(rows)),
        minlength=splitter.num_partitions,
    ).tolist()
    host_counts = None
    if placement is not None:
        if placement.num_partitions != splitter.num_partitions:
            raise ValueError(
                "placement and splitter disagree on the partition count"
            )
        host_counts = [0] * placement.num_hosts
        for partition, count in enumerate(counts):
            host_counts[placement.host_of_partition(partition)] += count
    return BalanceReport(counts, host_counts)


def compare_balance(
    splitters: Dict[str, Splitter], rows: Union[Sequence[dict], ColumnBatch]
) -> Dict[str, BalanceReport]:
    """Balance reports for several candidate splitters on one trace."""
    batch = ensure_columns(rows)
    return {name: partition_balance(s, batch) for name, s in splitters.items()}
