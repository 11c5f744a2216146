"""Centralized reference execution of an analyzed query DAG.

Runs every query node on a single (virtual) machine over the full trace.
This is both the baseline semantics the distributed plans must match
(partition compatibility is *defined* by output equality, paper §3.4) and
the reference implementation tests compare against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..gsql.analyzer import NodeKind
from ..plan.dag import QueryDag
from .operators import Batch
from .variants import build_variant_operator


def run_centralized(
    dag: QueryDag, source_rows: Mapping[str, Sequence[dict]]
) -> Dict[str, Batch]:
    """Execute the whole DAG centrally.

    ``source_rows`` maps each base stream name to its full trace.  Returns
    the output batch of every query node, keyed by node name.  Nodes
    compile through the same variant seam as every backend (FULL), so a
    ``RANGE/SLIDE`` aggregation is answered over its sliding windows, not
    as the tumbling query it would be without the clause.
    """
    outputs: Dict[str, Batch] = {}
    for node in dag.nodes():
        if node.kind is NodeKind.SOURCE:
            try:
                outputs[node.name] = list(source_rows[node.name])
            except KeyError:
                raise KeyError(
                    f"no trace supplied for source stream {node.name!r}"
                ) from None
            continue
        operator = build_variant_operator(node, "full")
        inputs = [outputs[name] for name in node.inputs]
        outputs[node.name] = operator.process(*inputs)
    return {
        name: batch
        for name, batch in outputs.items()
        if dag.node(name).kind is not NodeKind.SOURCE
    }


def canonical(batch: Batch) -> List[tuple]:
    """Order-independent canonical form of a batch, for comparisons.

    Streams are unordered multisets within a window; two batches are
    equivalent iff their canonical forms are equal.
    """
    # Sort by repr: row values may mix ints, floats, and NULL (None) from
    # outer joins, which are not mutually orderable.
    return sorted(
        (tuple(sorted(row.items(), key=lambda item: item[0])) for row in batch),
        key=repr,
    )


def batches_equal(left: Batch, right: Batch) -> bool:
    """Multiset equality of two row batches."""
    return canonical(left) == canonical(right)
