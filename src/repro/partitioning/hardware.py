"""Models of the partitioning hardware's capabilities.

The paper (sections 1 and 3.2) emphasizes that the splitter is specialized
hardware (FPGA/TCAM NICs): it can hash on TCP header fields but cannot,
e.g., run regular expressions over HTTP payloads, and it cannot always be
reconfigured when the query set changes.  The distributed optimizer must
therefore cope with whatever partitioning the hardware actually provides.

:class:`HardwareConstraint` captures "what the splitter can compute" as a
predicate over partitioning sets.  Concrete constraints:

* :class:`FieldsConstraint` — only certain attributes may be referenced
  (e.g. a splitter that can only see ``destIP``);
* :class:`ExpressionWhitelist` — only specific expressions are wired in
  (e.g. a deployed FPGA image computing ``srcIP & 0xFFF0`` and ``destIP``);
* :class:`AnyPartitioning` — an idealized fully programmable splitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..expr import analysis as xanalysis
from ..expr.expressions import ScalarExpr, parse_scalar
from .partition_set import PartitioningSet


class HardwareConstraint:
    """Base interface: can this splitter realize a given partitioning set?"""

    def supports(self, ps: PartitioningSet) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def feasible_subset(self, ps: PartitioningSet) -> PartitioningSet:
        """The largest realizable subset of ``ps``.

        Every subset of a compatible partitioning set is itself compatible
        (paper §3.5), so projecting a candidate onto the hardware's
        capabilities yields a sound, possibly coarser, alternative.
        Returns the empty set when no expression is realizable.
        """
        kept = tuple(
            expr for expr in ps.exprs if self.supports(PartitioningSet((expr,)))
        )
        return PartitioningSet(kept)


@dataclass(frozen=True)
class AnyPartitioning(HardwareConstraint):
    """A fully programmable splitter: every partitioning is realizable."""

    def supports(self, ps: PartitioningSet) -> bool:
        return not ps.is_empty

    def describe(self) -> str:
        return "fully programmable splitter"


@dataclass(frozen=True)
class FieldsConstraint(HardwareConstraint):
    """The splitter can hash arbitrary expressions over a fixed field set.

    Models TCAM-style hardware that exposes selected header fields: any
    scalar expression over those fields is assumed implementable (masks
    and shifts are cheap in gates), anything touching other fields is not.
    """

    fields: FrozenSet[str]

    @classmethod
    def of(cls, *names: str) -> "FieldsConstraint":
        return cls(frozenset(names))

    def supports(self, ps: PartitioningSet) -> bool:
        if ps.is_empty:
            return False
        return all(expr.attrs() <= self.fields for expr in ps.exprs)

    def describe(self) -> str:
        return f"splitter restricted to fields {{{', '.join(sorted(self.fields))}}}"


@dataclass(frozen=True)
class ExpressionWhitelist(HardwareConstraint):
    """The splitter computes a fixed expression menu (a deployed FPGA image).

    A partitioning set is realizable when each of its expressions is a
    function of some wired-in expression — the hardware partitions at least
    as finely as requested, and the refinement analysis guarantees the
    requested grouping is preserved.
    """

    exprs: Tuple[ScalarExpr, ...]

    @classmethod
    def of(cls, *specs) -> "ExpressionWhitelist":
        converted = tuple(
            spec if isinstance(spec, ScalarExpr) else parse_scalar(spec)
            for spec in specs
        )
        return cls(converted)

    def supports(self, ps: PartitioningSet) -> bool:
        if ps.is_empty:
            return False
        return all(
            any(xanalysis.is_function_of(expr, wired) for wired in self.exprs)
            for expr in ps.exprs
        )

    def describe(self) -> str:
        return (
            "splitter with wired expressions {"
            + ", ".join(str(e) for e in self.exprs)
            + "}"
        )


def tcp_header_splitter() -> FieldsConstraint:
    """The realistic default: hashing on TCP/IP header fields only (§1 —
    "possible to implement partitioning based on TCP fields ... but
    accessing fields from higher-level protocols ... is not feasible")."""
    return FieldsConstraint.of(
        "srcIP", "destIP", "srcPort", "destPort", "protocol", "flags"
    )

