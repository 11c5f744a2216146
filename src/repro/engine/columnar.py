"""The runtime's kernels: batches as NumPy arrays, operators as array programs.

The reference operators (:mod:`repro.engine.operators`) process one dict
per tuple; this module processes a whole batch per operator call over a
:class:`ColumnBatch` — a mapping of column name to NumPy array, and the
one batch type that crosses a plan-node boundary.  Selection becomes
an index gather (:func:`_filter`), tumbling-window aggregation becomes
a group factorization (one sort of the group keys packed into unsigned
codes, :func:`_group`) with per-aggregate ``ufunc.reduceat``
reductions, and merge becomes array concatenation.  Scalar expressions
are lowered by :mod:`repro.expr.vectorizer`.

The row index rides in the codes' low bits only when values follow the
keys: an aggregate with an argument reads its values through the sort
permutation, and the group keys are gathered through it at group
starts.  Such codes are ``uint64``.  A kernel whose aggregates all lack
an argument (COUNT(*)) sorts the keys alone, in ``uint32`` codes when
they fit 32 bits, and decodes each group's key from its sorted code: it
has no permutation to gather through, while where there is one,
gathering beats decoding.

Joins and NULL-padding are vectorized too: :class:`ColumnarJoinOp`
factorizes both sides' key columns jointly (:func:`_group_rows`, the
ordered factorization aggregation grouping uses), probes the build side
with gather indices to produce aligned left/right row selectors, and
projects the SELECT list over the merged, qualified (``alias.column``)
columns; :class:`ColumnarNullPadOp` shares the padded projection,
which evaluates the SELECT list with the padded side's columns all-None
and turns a ``TypeError`` into NULL, as the row projection does
(:func:`repro.expr.vectorizer.vectorize_padded_output`).

Every plan node has a kernel.  An aggregate with no array form (a UDAF)
runs its own state/merge/final protocol once per group inside the same
group-by kernels (:class:`_UdafFold`), and every expression the analyzer
accepts lowers.  Parity with the reference is exact — for every workload
catalog the kernels produce the output multisets of the centralized row
run (``tests/test_engine_parity.py``) and the per-node tuple counts,
hence the CPU/network accounting, the committed figure tables were
produced with.

Aggregate states follow the sub/super protocol of
:mod:`repro.engine.aggregates`: a scalar-state aggregate (COUNT, SUM,
MIN, MAX, OR_AGGR, AND_AGGR) ships its state as a plain array column,
while a composite state (AVG's ``(sum, count)``, VARIANCE's ``(count,
sum, sumsq)``) is a *tuple of arrays* stored unzipped —
:meth:`ColumnBatch.to_rows` zips it back into per-row Python tuples.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..expr.vectorizer import (
    materialize,
    vectorize_expr,
    vectorize_key,
    vectorize_padded_output,
    vectorize_predicate,
)
from ..gsql.analyzer import AnalyzedNode, NodeKind
from ..gsql.ast_nodes import JoinType
from .aggregates import AggregateFunction, aggregate_impl, state_columns

# A column is either one array or, for composite aggregate states, a tuple
# of component arrays of equal length (a tuple-valued column, unzipped).
Column = Union[np.ndarray, Tuple[np.ndarray, ...]]

#: One row as :meth:`ColumnBatch.to_rows` builds it: column name -> native scalar.
Row = Dict[str, object]


def _column_length(column: Column) -> int:
    if isinstance(column, tuple):
        return len(column[0])
    return len(column)


class ColumnBatch:
    """A batch of tuples in columnar form: name -> array (+ length)."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, Column], length: Optional[int] = None):
        if length is None:
            length = (
                _column_length(next(iter(columns.values()))) if columns else 0
            )
        self.columns = columns
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"ColumnBatch({list(self.columns)}, length={self.length})"

    def names(self) -> List[str]:
        return list(self.columns)

    def column(self, name: str) -> Column:
        return self.columns[name]

    def select(self, selector: np.ndarray) -> "ColumnBatch":
        """A new batch of the rows picked by a boolean mask or index array."""
        columns = {
            name: _take(column, selector) for name, column in self.columns.items()
        }
        if selector.dtype == bool:
            length = int(np.count_nonzero(selector))
        else:
            length = len(selector)
        return ColumnBatch(columns, length)

    def slice(self, start: int, stop: int, step: int = 1) -> "ColumnBatch":
        """The rows ``start, start + step, ...`` below ``stop`` as zero-copy
        views (strided when ``step > 1``)."""
        rows = slice(start, stop, step)
        columns = {name: _take(column, rows) for name, column in self.columns.items()}
        return ColumnBatch(columns, len(range(start, stop, step)))

    def read_only(self) -> "ColumnBatch":
        """The same rows through non-writeable views; the batch's own
        arrays keep their flags."""
        return ColumnBatch(
            {name: _frozen(column) for name, column in self.columns.items()},
            self.length,
        )

    def to_rows(self) -> List[Row]:
        """Materialize as the row engine's list of dicts (native scalars)."""
        if self.length == 0:
            return []
        names = self.names()
        pools = []
        for name in names:
            column = self.columns[name]
            if isinstance(column, tuple):
                components = [part.tolist() for part in column]
                pools.append(list(zip(*components)))
            else:
                pools.append(column.tolist())
        return [dict(zip(names, values)) for values in zip(*pools)]

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "ColumnBatch":
        """Convert a row batch; tuple-valued cells become composite columns."""
        rows = list(rows)
        if not rows:
            return cls({}, 0)
        columns = {name: _column([row[name] for row in rows]) for name in rows[0]}
        return cls(columns, len(rows))

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches (stream union); empty inputs are skipped."""
        alive = [batch for batch in batches if batch.length > 0]
        if not alive:
            return batches[0] if batches else cls({}, 0)
        if len(alive) == 1:
            only = alive[0]
            return cls(dict(only.columns), only.length)
        names = alive[0].names()
        columns: Dict[str, Column] = {}
        for name in names:
            parts = [batch.columns[name] for batch in alive]
            if isinstance(parts[0], tuple):
                width = len(parts[0])
                columns[name] = tuple(
                    np.concatenate([part[index] for part in parts])
                    for index in range(width)
                )
            else:
                columns[name] = np.concatenate(parts)
        return cls(columns, sum(batch.length for batch in alive))


def _column(values: list) -> Column:
    """One column from a non-empty list of native values: tuple-valued
    cells become a composite column, anything else one array."""
    if isinstance(values[0], tuple):
        return tuple(
            np.asarray([value[index] for value in values])
            for index in range(len(values[0]))
        )
    return np.asarray(values)


def _take(column: Column, selector: Union[np.ndarray, slice]) -> Column:
    if isinstance(column, tuple):
        return tuple(part[selector] for part in column)
    return column[selector]


def _frozen(column: Column) -> Column:
    if isinstance(column, tuple):
        return tuple(_frozen(part) for part in column)
    view = column.view()
    view.flags.writeable = False
    return view


def ensure_columns(batch) -> ColumnBatch:
    """Coerce a row list (or ColumnBatch) to columnar form."""
    if isinstance(batch, ColumnBatch):
        return batch
    return ColumnBatch.from_rows(batch)


# -- group-by factorization ----------------------------------------------------


def _pack_keys(
    keys: List[np.ndarray], length: int, index: bool = True
) -> Optional[Tuple[np.ndarray, List[Tuple[int, int, int]]]]:
    """The keys bit-concatenated into one unsigned code per row.

    Each integer or bool key takes ``(max - min).bit_length()`` bits,
    stored offset from its minimum, the first key in the most significant
    bits; constant keys take none.  With ``index`` the low ``(length -
    1).bit_length()`` bits hold the row index, so every code is unique and
    sorting the codes orders rows exactly as a stable lexsort of the keys
    does.  Codes with the index are ``uint64``; codes without it are
    ``uint32`` when the fields fit 32 bits.  Returns the codes and each
    key's ``(lowest, width, shift)`` field, or None when a key is not
    integer or bool, or the fields exceed 64 bits.
    """
    bits = (length - 1).bit_length() if index else 0
    extents = []
    for key in keys:
        if key.dtype.kind not in "iub":
            return None
        lowest = int(np.minimum.reduce(key))
        width = (int(np.maximum.reduce(key)) - lowest).bit_length()
        bits += width
        if bits > 64:
            return None
        extents.append((lowest, width))
    # A narrow code with the index sorts faster but costs a cast per
    # 8-byte key, which loses on the small batches most ordered calls get.
    unsigned = np.uint64 if index or bits > 32 else np.uint32
    code = np.arange(length, dtype=unsigned) if index else np.zeros(length, unsigned)
    part = np.empty(length, dtype=unsigned)
    modulus = 1 << 8 * code.itemsize
    fields = []
    shift = bits
    for key, (lowest, width) in zip(keys, extents):
        shift -= width
        fields.append((lowest, width, shift))
        if not width:
            continue
        # Modulo 2**(8 * itemsize) the offset is exact, and it fits the
        # code: keys as wide as the code are reinterpreted as unsigned,
        # other and bool keys cast into the scratch once.
        if key.itemsize == code.itemsize:
            key = key.view(unsigned)
        else:
            np.copyto(part, key, casting="unsafe")
            key = part
        np.subtract(key, unsigned(lowest % modulus), out=part)
        if shift:
            np.left_shift(part, unsigned(shift), out=part)
        np.bitwise_or(code, part, out=code)
    return code, fields


def _unpack_keys(
    codes: np.ndarray, keys: List[np.ndarray], fields: List[Tuple[int, int, int]]
) -> List[np.ndarray]:
    """Each key's value in index-free ``codes``, in the key's dtype: its
    field shifted down and masked, plus its minimum (modulo 2**64, which
    the cast to a narrower dtype keeps exact)."""
    codes = codes.astype(np.uint64, copy=False)
    values = []
    for key, (lowest, width, shift) in zip(keys, fields):
        value = codes >> np.uint64(shift)
        value &= np.uint64((1 << width) - 1)
        value += np.uint64(lowest % (1 << 64))
        if key.dtype.itemsize == 8:
            values.append(value.view(key.dtype))
        else:
            values.append(value.astype(key.dtype))
    return values


def _sort_order(
    keys: List[np.ndarray], length: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The permutation a stable lexsort of the keys returns, and each
    sorted row's key-only code (None when the keys fall back to
    ``np.lexsort``): one sort of codes that carry the row index.
    ``length`` must be positive."""
    packed = _pack_keys(keys, length)
    if packed is None:
        return np.lexsort(tuple(reversed(keys))), None
    code, _ = packed
    code.sort()
    index_bits = (length - 1).bit_length()
    group_code = code >> np.uint64(index_bits)
    code &= np.uint64((1 << index_bits) - 1)
    return code.view(np.intp), group_code


def _starts_and_counts(change: np.ndarray):
    """Each group's start and row count, from the flags of sorted rows
    whose key differs from the row before (the first row's set)."""
    starts = change.nonzero()[0]
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = len(change) - starts[-1]
    return starts, counts


def _group_rows(keys: List[np.ndarray], length: int):
    """``(order, starts, counts)``: the stable sort permutation of the key
    tuples, each group's start offset in it and each group's row count.
    ``keys`` and ``length`` must be non-empty."""
    order, group_code = _sort_order(keys, length)
    change = np.empty(length, dtype=bool)
    change[0] = True
    if group_code is not None:
        np.not_equal(group_code[1:], group_code[:-1], out=change[1:])
    else:
        change[1:] = False
        for key in keys:
            ordered = key[order]
            change[1:] |= ordered[1:] != ordered[:-1]
    return (order, *_starts_and_counts(change))


def _group(keys: List[np.ndarray], length: int, ordered: bool = True):
    """Factorize rows by key tuple with one sort of packed codes.

    Returns ``(order, starts, counts, group_keys)``: the sort permutation
    (the one a stable lexsort of the keys returns), the start offset of
    each group in sorted order, per-group row counts, and each key's
    value per group.  With no keys all rows form one group (a global
    aggregate).  Keys :func:`_pack_keys` cannot pack (float, object, or
    too wide) fall back to ``np.lexsort``.  ``length`` must be positive.

    A caller that reads no value in group order passes ``ordered=False``
    and gets no order (None): its codes carry no row index, and each
    group's key is read back from its sorted code.  Groups, starts,
    counts and keys are the ordered call's.
    """
    if not keys:
        starts = np.zeros(1, dtype=np.intp)
        counts = np.asarray([length], dtype=np.int64)
        return (np.arange(length) if ordered else None), starts, counts, []
    packed = None if ordered else _pack_keys(keys, length, index=False)
    if packed is None:
        order, starts, counts = _group_rows(keys, length)
        firsts = order[starts]
        group_keys = [key[firsts] for key in keys]
        return (order if ordered else None), starts, counts, group_keys
    code, fields = packed
    code.sort()
    change = np.empty(length, dtype=bool)
    change[0] = True
    np.not_equal(code[1:], code[:-1], out=change[1:])
    starts, counts = _starts_and_counts(change)
    return None, starts, counts, _unpack_keys(code[starts], keys, fields)


# -- vectorized aggregate kernels ----------------------------------------------


class VectorAggregate:
    """Batch-level counterpart of :class:`~repro.engine.aggregates.AggregateFunction`.

    States are tuples of per-group arrays; ``update`` folds sorted input
    values group-wise, ``merge`` combines sorted partial-state components
    (the SUPER step), and ``final`` extracts the result column.  The state
    tuple's arity matches the row engine's state shape, so SUB outputs
    round-trip exactly between the two representations.
    """

    def update(
        self, values: Optional[np.ndarray], starts: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def merge(
        self, components: Tuple[np.ndarray, ...], starts: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def final(self, state: Tuple[np.ndarray, ...]) -> np.ndarray:
        return state[0]

    def shipped(self, state: Tuple[np.ndarray, ...]) -> Column:
        """The state as the SUB output column a SUPER merges."""
        return state[0] if len(state) == 1 else state


def _sum_dtype(values: np.ndarray) -> Optional[type]:
    """The dtype sum-style aggregates fold ``values`` in, as Python's
    ``+`` does: booleans and integers narrower than 64 bits in ``int64``
    (NumPy's own sums are logical over bools and ``uint64`` over a
    ``uint16`` column, which wraps once the sum goes negative)."""
    if values.dtype.kind in "biu" and values.dtype.itemsize < 8:
        return np.int64
    return None


class _VectorCount(VectorAggregate):
    def update(self, values, starts, counts):
        return (counts,)

    def merge(self, components, starts):
        return (np.add.reduceat(components[0], starts),)


class _VectorSum(VectorAggregate):
    def update(self, values, starts, counts):
        return (np.add.reduceat(values, starts, dtype=_sum_dtype(values)),)

    def merge(self, components, starts):
        return (np.add.reduceat(components[0], starts),)


class _VectorMin(VectorAggregate):
    def update(self, values, starts, counts):
        return (np.minimum.reduceat(values, starts),)

    def merge(self, components, starts):
        return (np.minimum.reduceat(components[0], starts),)


class _VectorMax(VectorAggregate):
    def update(self, values, starts, counts):
        return (np.maximum.reduceat(values, starts),)

    def merge(self, components, starts):
        return (np.maximum.reduceat(components[0], starts),)


class _VectorAvg(VectorAggregate):
    def update(self, values, starts, counts):
        return (np.add.reduceat(values, starts, dtype=_sum_dtype(values)), counts)

    def merge(self, components, starts):
        return tuple(np.add.reduceat(part, starts) for part in components)

    def final(self, state):
        total, count = state
        return np.true_divide(total, count)


class _VectorVariance(VectorAggregate):
    def update(self, values, starts, counts):
        dtype = _sum_dtype(values)
        return (
            counts,
            np.add.reduceat(values, starts, dtype=dtype),
            np.add.reduceat(np.multiply(values, values, dtype=dtype), starts),
        )

    def merge(self, components, starts):
        return tuple(np.add.reduceat(part, starts) for part in components)

    def final(self, state):
        count, total, squares = state
        mean = np.true_divide(total, count)
        return np.true_divide(squares, count) - mean * mean


class _VectorStddev(_VectorVariance):
    def final(self, state):
        variance = super().final(state)
        return np.sqrt(np.maximum(variance, 0.0))


class _VectorOr(VectorAggregate):
    def update(self, values, starts, counts):
        return (np.bitwise_or.reduceat(values, starts),)

    def merge(self, components, starts):
        return (np.bitwise_or.reduceat(components[0], starts),)


class _VectorAnd(VectorAggregate):
    def update(self, values, starts, counts):
        return (np.bitwise_and.reduceat(values, starts),)

    def merge(self, components, starts):
        return (np.bitwise_and.reduceat(components[0], starts),)


_VECTOR_AGGREGATES: Dict[str, VectorAggregate] = {
    "COUNT": _VectorCount(),
    "SUM": _VectorSum(),
    "MIN": _VectorMin(),
    "MAX": _VectorMax(),
    "AVG": _VectorAvg(),
    "VARIANCE": _VectorVariance(),
    "STDDEV": _VectorStddev(),
    "OR_AGGR": _VectorOr(),
    "AND_AGGR": _VectorAnd(),
}


class _UdafFold(VectorAggregate):
    """A UDAF's own state/merge/final protocol, run once per group.

    FULL and SUB fold ``update`` over each group's slice of the sorted
    argument column, SUPER folds ``merge`` over each group's shipped
    states, both from ``initial()``; ``final`` runs once per group.
    :func:`_group` is stable, so a slice holds its group's rows in
    arrival order, the order the row reference folds them in.  States
    stay Python objects, held as one list per call; the columns they
    leave as are built by :meth:`ColumnBatch.from_rows`' rule.
    """

    def __init__(self, impl: AggregateFunction):
        self._impl = impl

    def update(self, values, starts, counts):
        if values is None:
            values = [None] * int(counts.sum())
        else:
            values = values.tolist()
        return (self._fold(self._impl.update, values, starts, counts),)

    def merge(self, components, starts):
        if len(components) == 1:
            states = components[0].tolist()
        else:
            states = list(zip(*(part.tolist() for part in components)))
        counts = np.diff(starts, append=len(states))
        return (self._fold(self._impl.merge, states, starts, counts),)

    def _fold(self, step, values: list, starts, counts) -> list:
        initial = self._impl.initial
        return [
            reduce(step, values[start:start + count], initial())
            for start, count in zip(starts.tolist(), counts.tolist())
        ]

    def final(self, state):
        (groups,) = state
        return _column([self._impl.final(group) for group in groups])

    def shipped(self, state):
        return _column(state[0])


def vector_aggregate_impl(name: str) -> VectorAggregate:
    """The kernel for aggregate ``name``: its array form, or the fold of
    its own protocol when it has none (a UDAF)."""
    kernel = _VECTOR_AGGREGATES.get(name)
    return kernel if kernel is not None else _UdafFold(aggregate_impl(name))


# -- operators -----------------------------------------------------------------


class ColumnarOperator:
    """Base class: ``process`` consumes ColumnBatches, returns one.

    A kernel is its plan node's compiled operator.  ``arity`` is the
    number of inputs ``process`` takes (two for a join), which is all
    :meth:`empty` needs to know.
    """

    arity = 1
    _empty_batch: Optional[ColumnBatch] = None

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        raise NotImplementedError

    def empty(self) -> ColumnBatch:
        """The typed empty output, computed on the first call and then
        shared by every caller: no consumer may write into a batch it
        did not build."""
        if self._empty_batch is None:
            self._empty_batch = self.process(*[ColumnBatch({}, 0)] * self.arity)
        return self._empty_batch


class ColumnarMergeOp(ColumnarOperator):
    """Stream union: concatenate column arrays."""

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        return ColumnBatch.concat(batches)


def _filter(
    columns: Dict[str, Column], length: int, mask: np.ndarray
) -> Tuple[Dict[str, Column], int]:
    """The rows ``mask`` keeps, and how many: the columns as they are
    when it keeps all, else each gathered through one index array (a
    boolean mask would be scanned once per column)."""
    kept = int(np.count_nonzero(mask))
    if kept == length:
        return columns, length
    index = np.flatnonzero(mask)
    return {name: _take(column, index) for name, column in columns.items()}, kept


def _empty_output(names: Sequence[str]) -> ColumnBatch:
    return ColumnBatch({name: np.empty(0, dtype=np.int64) for name in names}, 0)


def _filter_then_project(
    columns: Dict[str, Column], length: int, predicate, outputs, output_names
) -> ColumnBatch:
    """Keep the rows ``predicate`` (WHERE or HAVING; may be None) passes,
    then evaluate the SELECT list ``outputs`` over them."""
    if predicate is not None:
        columns, length = _filter(columns, length, predicate(columns, length))
        if length == 0:
            return _empty_output(output_names)
    out = {name: materialize(fn(columns, length), length) for name, fn in outputs}
    return ColumnBatch(out, length)


class ColumnarSelectionOp(ColumnarOperator):
    """Selection/projection: index filter + computed columns."""

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.SELECTION:
            raise ValueError(f"{node.name} is not a selection node")
        self._predicate = (
            vectorize_predicate(node.where) if node.where is not None else None
        )
        self._outputs = [
            (column.name, vectorize_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self._output_names = [column.name for column in node.columns]

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        length = len(batch)
        if length == 0:
            return _empty_output(self._output_names)
        return _filter_then_project(
            batch.columns, length, self._predicate, self._outputs,
            self._output_names,
        )


class ColumnarAggregateOp(ColumnarOperator):
    """Tumbling-window group-by aggregation — FULL variant.

    Filters, factorizes the group keys, reduces every aggregate with its
    vector kernel, applies HAVING on the finished group columns, and
    projects the SELECT list.
    """

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.AGGREGATION:
            raise ValueError(f"{node.name} is not an aggregation node")
        self._where = (
            vectorize_predicate(node.where) if node.where is not None else None
        )
        self._keys = vectorize_key([g.expr for g in node.group_by])
        self._gb_names = [g.name for g in node.group_by]
        self._kernels = [vector_aggregate_impl(call.func) for call in node.aggregates]
        self._args = [
            vectorize_expr(call.arg) if call.arg is not None else None
            for call in node.aggregates
        ]
        # COUNT(*) reads no value in group order, so without an argument
        # to gather the factorization needs no order.
        self._ordered = any(arg is not None for arg in self._args)
        self._slots = [call.slot for call in node.aggregates]
        self._having = (
            vectorize_predicate(node.having) if node.having is not None else None
        )
        self._outputs = [
            (column.name, vectorize_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self._output_names = [column.name for column in node.columns]

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        length = len(batch)
        if length == 0:
            return self._empty()
        columns = batch.columns
        if self._where is not None:
            columns, length = _filter(columns, length, self._where(columns, length))
            if length == 0:
                return self._empty()
        keys = self._keys(columns, length)
        order, starts, counts, group_keys = _group(keys, length, self._ordered)
        group_columns: Dict[str, Column] = dict(zip(self._gb_names, group_keys))
        num_groups = len(counts)
        states = self._reduce(columns, length, order, starts, counts)
        self._store(group_columns, states)
        return self._finish(group_columns, num_groups)

    def _reduce(self, columns, length, order, starts, counts):
        states = []
        for kernel, arg in zip(self._kernels, self._args):
            if arg is None:
                values = None
            else:
                values = materialize(arg(columns, length), length)[order]
            states.append(kernel.update(values, starts, counts))
        return states

    def _store(self, group_columns: Dict[str, Column], states) -> None:
        for kernel, slot, state in zip(self._kernels, self._slots, states):
            group_columns[slot] = kernel.final(state)

    def _finish(self, group_columns: Dict[str, Column], num_groups: int):
        return _filter_then_project(
            group_columns, num_groups, self._having, self._outputs,
            self._output_names,
        )

    def _empty(self) -> ColumnBatch:
        return _empty_output(self._output_names)


class ColumnarSubAggregateOp(ColumnarAggregateOp):
    """SUB variant: emit raw aggregate states, no HAVING or projection."""

    def __init__(self, node: AnalyzedNode):
        super().__init__(node)
        self._state_names = state_columns(node.aggregates)
        self._output_names = self._gb_names + self._state_names

    def _store(self, group_columns: Dict[str, Column], states) -> None:
        for kernel, name, state in zip(self._kernels, self._state_names, states):
            group_columns[name] = kernel.shipped(state)

    def _finish(self, group_columns: Dict[str, Column], num_groups: int):
        return ColumnBatch(group_columns, num_groups)


class ColumnarSuperAggregateOp(ColumnarOperator):
    """SUPER variant: group-wise merge of partial states, then finalize."""

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.AGGREGATION:
            raise ValueError(f"{node.name} is not an aggregation node")
        self._gb_names = [g.name for g in node.group_by]
        self._kernels = [vector_aggregate_impl(call.func) for call in node.aggregates]
        self._slots = [call.slot for call in node.aggregates]
        self._state_names = state_columns(node.aggregates)
        self._having = (
            vectorize_predicate(node.having) if node.having is not None else None
        )
        self._outputs = [
            (column.name, vectorize_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self._output_names = [column.name for column in node.columns]

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        length = len(batch)
        if length == 0:
            return _empty_output(self._output_names)
        columns = batch.columns
        keys = [np.asarray(columns[name]) for name in self._gb_names]
        order, starts, counts, group_keys = _group(
            keys, length, bool(self._kernels)
        )
        group_columns: Dict[str, Column] = dict(zip(self._gb_names, group_keys))
        num_groups = len(counts)
        for kernel, slot, state_name in zip(
            self._kernels, self._slots, self._state_names
        ):
            column = columns[state_name]
            components = column if isinstance(column, tuple) else (column,)
            sorted_components = tuple(part[order] for part in components)
            merged = kernel.merge(sorted_components, starts)
            group_columns[slot] = kernel.final(merged)
        return _filter_then_project(
            group_columns, num_groups, self._having, self._outputs,
            self._output_names,
        )


# -- join ----------------------------------------------------------------------


def _join_codes(
    left_keys: List[np.ndarray], right_keys: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Factorize both sides' key tuples into one shared code space.

    Concatenating each key column across the two sides and running the
    group-by factorization assigns every distinct key tuple one integer
    code; splitting the code array back gives per-row codes that are
    equal across sides exactly when the row keys are (with NumPy's usual
    dtype promotion, so an int build key matches a float probe key the
    way Python's ``5 == 5.0`` dict lookup does).  The fourth value is the
    build (right) side's rows in code order, input order within a code —
    the stable argsort of the right codes, read off the factorization.
    """
    n_left = len(left_keys[0])
    combined = [
        np.concatenate([left, right])
        for left, right in zip(left_keys, right_keys)
    ]
    length = len(combined[0])
    order, _, counts = _group_rows(combined, length)
    codes = np.empty(length, dtype=np.intp)
    codes[order] = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    right_order = order[order >= n_left] - n_left
    return codes[:n_left], codes[n_left:], len(counts), right_order


class _PaddedProjection:
    """The join's SELECT list over rows with one side entirely NULL.

    Used for outer-join unmatched rows and for the NULLPAD repair
    operator.  Applying it reads the live side's columns; each output
    gives every padded-side attribute it names an all-None column and is
    NULL where its evaluation raises ``TypeError`` (see
    :func:`repro.expr.vectorizer.vectorize_padded_output`).
    """

    def __init__(self, node: AnalyzedNode, live_index: int):
        self._live_alias = node.input_aliases[live_index]
        padded_prefix = node.input_aliases[1 - live_index] + "."

        def is_padded(name: str) -> bool:
            return name.startswith(padded_prefix)

        self._outputs = [
            (column.name, vectorize_padded_output(expr, is_padded))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self.output_names = [column.name for column in node.columns]

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        length = len(batch)
        prefix = self._live_alias + "."
        qualified = {
            prefix + name: column for name, column in batch.columns.items()
        }
        out = {
            name: materialize(fn(qualified, length), length)
            for name, fn in self._outputs
        }
        return ColumnBatch(out, length)


class ColumnarJoinOp(ColumnarOperator):
    """Vectorized two-way equi-join (inner and outer), tumbling-window.

    Mirrors :class:`~repro.engine.operators.JoinOp` bit for bit: factorize
    the equality keys of both sides into shared codes, expand each probe
    (left) row against its build-side (right) bucket into aligned
    left/right row selectors, evaluate the residual predicate and the
    SELECT projection over the merged qualified columns, and pad the
    unmatched rows of outer sides through the NULL-propagating projection.
    Within a key bucket, matches appear in build-side input order — the
    same order the row engine's hash-bucket lists produce.
    """

    arity = 2

    def __init__(self, node: AnalyzedNode):
        if node.kind is not NodeKind.JOIN:
            raise ValueError(f"{node.name} is not a join node")
        left_alias, right_alias = node.input_aliases
        self._left_alias = left_alias
        self._right_alias = right_alias
        self._left_key = vectorize_key([eq.left for eq in node.equalities])
        self._right_key = vectorize_key([eq.right for eq in node.equalities])
        self._residual = (
            vectorize_predicate(node.residual) if node.residual is not None else None
        )
        self._outputs = [
            (column.name, vectorize_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]
        self._output_names = [column.name for column in node.columns]
        # Only gather the qualified columns the residual or projection
        # actually reads.
        referenced = list(node.select_exprs)
        if node.residual is not None:
            referenced.append(node.residual)
        self._needed = {attr for expr in referenced for attr in expr.attrs()}
        join_type = node.join_type
        self._pad_unmatched_left = (
            _PaddedProjection(node, live_index=0)
            if join_type in (JoinType.LEFT_OUTER, JoinType.FULL_OUTER)
            else None
        )
        self._pad_unmatched_right = (
            _PaddedProjection(node, live_index=1)
            if join_type in (JoinType.RIGHT_OUTER, JoinType.FULL_OUTER)
            else None
        )

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        left, right = batches
        n_left, n_right = len(left), len(right)
        pieces: List[ColumnBatch] = []
        if n_left and n_right:
            matched, matched_left, matched_right = self._probe(left, right)
            pieces.append(matched)
        else:
            # An empty side means no pairs at all; outer sides pad wholesale.
            matched_left = np.zeros(n_left, dtype=bool)
            matched_right = np.zeros(n_right, dtype=bool)
        if self._pad_unmatched_left is not None and n_left:
            unmatched = left.select(~matched_left)
            if len(unmatched):
                pieces.append(self._pad_unmatched_left.apply(unmatched))
        if self._pad_unmatched_right is not None and n_right:
            unmatched = right.select(~matched_right)
            if len(unmatched):
                pieces.append(self._pad_unmatched_right.apply(unmatched))
        alive = [piece for piece in pieces if len(piece)]
        if not alive:
            return _empty_output(self._output_names)
        return ColumnBatch.concat(alive)

    def _probe(
        self, left: ColumnBatch, right: ColumnBatch
    ) -> Tuple[ColumnBatch, np.ndarray, np.ndarray]:
        """All qualifying (left, right) pairs plus per-side matched flags.

        A row counts as matched only when some pair containing it passes
        the residual predicate — exactly the row engine's ``found`` /
        ``matched_right`` bookkeeping.
        """
        n_left, n_right = len(left), len(right)
        matched_left = np.zeros(n_left, dtype=bool)
        matched_right = np.zeros(n_right, dtype=bool)
        left_codes, right_codes, num_groups, right_order = _join_codes(
            self._left_key(left.columns, n_left),
            self._right_key(right.columns, n_right),
        )
        bucket_sizes = np.bincount(right_codes, minlength=num_groups)
        bucket_starts = np.concatenate(
            ([0], np.cumsum(bucket_sizes)[:-1])
        )
        per_left = bucket_sizes[left_codes]
        total = int(per_left.sum())
        if total == 0:
            return _empty_output(self._output_names), matched_left, matched_right
        # Expand each left row against its bucket: output i falls in left
        # row left_sel[i]'s run; its offset within the run indexes into
        # the bucket's slice of the code-sorted right permutation.
        left_sel = np.repeat(np.arange(n_left), per_left)
        run_ends = np.cumsum(per_left)
        offset_in_run = np.arange(total) - np.repeat(run_ends - per_left, per_left)
        right_sel = right_order[
            np.repeat(bucket_starts[left_codes], per_left) + offset_in_run
        ]
        merged, length = self._merge(left, right, left_sel, right_sel)
        if self._residual is not None:
            # The selectors ride along; a qualified name always has a dot.
            mask = self._residual(merged, length)
            merged["left"], merged["right"] = left_sel, right_sel
            merged, length = _filter(merged, length, mask)
            left_sel, right_sel = merged.pop("left"), merged.pop("right")
        matched_left[left_sel] = True
        matched_right[right_sel] = True
        if length == 0:
            return _empty_output(self._output_names), matched_left, matched_right
        out = {
            name: materialize(fn(merged, length), length)
            for name, fn in self._outputs
        }
        return ColumnBatch(out, length), matched_left, matched_right

    def _merge(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        left_sel: np.ndarray,
        right_sel: np.ndarray,
    ) -> Tuple[Dict[str, Column], int]:
        """Gather the referenced qualified columns of the aligned pairs."""
        merged: Dict[str, Column] = {}
        for alias, batch, selector in (
            (self._left_alias, left, left_sel),
            (self._right_alias, right, right_sel),
        ):
            prefix = alias + "."
            for name, column in batch.columns.items():
                qualified = prefix + name
                if qualified in self._needed:
                    merged[qualified] = _take(column, selector)
        return merged, len(left_sel)


class ColumnarNullPadOp(ColumnarOperator):
    """Outer-join padding for an unmatched partition (paper §5.3).

    ``side`` names the input whose rows are present; the opposite side is
    all-NULL, and the join's padded projection evaluates over it.  Its
    row reference is the outer :class:`~repro.engine.operators.JoinOp`
    over an empty opposite input, which pads every row it is given.
    """

    def __init__(self, node: AnalyzedNode, side: str):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self._projection = _PaddedProjection(
            node, live_index=0 if side == "left" else 1
        )

    def process(self, *batches: ColumnBatch) -> ColumnBatch:
        (batch,) = batches
        if len(batch) == 0:
            return _empty_output(self._projection.output_names)
        return self._projection.apply(batch)


def build_columnar_operator(
    node: AnalyzedNode, variant: str = "full"
) -> ColumnarOperator:
    """The kernel for a tumbling node: selection, an aggregation variant,
    join or union.

    Every aggregate has a kernel (a UDAF's is :class:`_UdafFold`) and
    every expression the analyzer accepts lowers, so every node the
    analyzer produces gets one.
    """
    if node.kind is NodeKind.SELECTION:
        return ColumnarSelectionOp(node)
    if node.kind is NodeKind.AGGREGATION:
        if variant == "full":
            return ColumnarAggregateOp(node)
        if variant == "sub":
            return ColumnarSubAggregateOp(node)
        if variant == "super":
            return ColumnarSuperAggregateOp(node)
        raise ValueError(f"unknown aggregation variant {variant!r}")
    if node.kind is NodeKind.JOIN:
        return ColumnarJoinOp(node)
    if node.kind is NodeKind.UNION:
        return ColumnarMergeOp()
    raise ValueError(f"no kernel for node kind {node.kind!r}")


def build_columnar_nullpad(node: AnalyzedNode, side: str) -> ColumnarNullPadOp:
    """The NULLPAD kernel of a join node (paper §5.3)."""
    return ColumnarNullPadOp(node, side)
