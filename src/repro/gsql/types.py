"""Column types for GSQL stream schemas.

Gigascope schemas carry low-level network types (IP addresses, unsigned
integers of various widths).  The type objects let the analyzer
type-check expressions and the cost model compute tuple widths in bytes.
At runtime a trace column is a NumPy array at the width its header field
has (:data:`repro.traces.generator.TRACE_COLUMNS`: ``uint32`` for an
``ip``, ``uint16`` for a ``uint16`` port, and so on, with ``time`` in
``int64``), and the columnar engine computes on it as Python does on
unbounded ints; a row, and every value the oracle folds, is a Python int.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TypeKind(enum.Enum):
    """The families of GSQL column types."""

    UINT = "uint"
    INT = "int"
    IP = "ip"
    TIME = "time"
    BOOL = "bool"
    STRING = "string"
    FLOAT = "float"


@dataclass(frozen=True)
class ColumnType:
    """A concrete column type: a kind plus a width in bytes.

    The width feeds the cost model's tuple-size estimates (paper section
    4.2.1 measures rates in bytes/sec derived from tuple sizes).
    """

    kind: TypeKind
    width: int

    def is_numeric(self) -> bool:
        """Whether arithmetic and bitwise operators apply to this type."""
        return self.kind in (
            TypeKind.UINT,
            TypeKind.INT,
            TypeKind.IP,
            TypeKind.TIME,
            TypeKind.FLOAT,
        )

    def is_integral(self) -> bool:
        """Whether the type is integer-valued (bitwise ops permitted)."""
        return self.kind in (TypeKind.UINT, TypeKind.INT, TypeKind.IP, TypeKind.TIME)

    def __str__(self) -> str:
        return f"{self.kind.value}{self.width * 8}"


# The standard palette of types used by the paper's packet schemas.
UINT = ColumnType(TypeKind.UINT, 4)
UINT8 = ColumnType(TypeKind.UINT, 1)
UINT16 = ColumnType(TypeKind.UINT, 2)
UINT64 = ColumnType(TypeKind.UINT, 8)
INT = ColumnType(TypeKind.INT, 4)
IP = ColumnType(TypeKind.IP, 4)
TIME = ColumnType(TypeKind.TIME, 4)
BOOL = ColumnType(TypeKind.BOOL, 1)
STRING = ColumnType(TypeKind.STRING, 16)
FLOAT = ColumnType(TypeKind.FLOAT, 8)

_NAMED_TYPES = {
    "uint": UINT,
    "uint8": UINT8,
    "uint16": UINT16,
    "uint32": UINT,
    "uint64": UINT64,
    "int": INT,
    "ip": IP,
    "time": TIME,
    "bool": BOOL,
    "string": STRING,
    "float": FLOAT,
}


def type_from_name(name: str) -> ColumnType:
    """Look up a type by its GSQL name (case-insensitive).

    Raises ``KeyError`` for unknown names; the schema layer converts that
    into a :class:`~repro.gsql.errors.SemanticError`.
    """
    return _NAMED_TYPES[name.lower()]


def merge_numeric(left: ColumnType, right: ColumnType) -> ColumnType:
    """Result type of a binary arithmetic expression over two numeric types.

    Widens to the larger width; FLOAT is contagious.  IP/TIME degrade to
    UINT when combined with anything else, which mirrors how Gigascope
    treats address arithmetic (masking an IP yields an unsigned integer that
    is still printable as an address).
    """
    if TypeKind.FLOAT in (left.kind, right.kind):
        return FLOAT
    width = max(left.width, right.width)
    if left.kind == right.kind:
        return ColumnType(left.kind, width)
    return ColumnType(TypeKind.UINT, width)
