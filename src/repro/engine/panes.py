"""Pane-based sliding-window aggregation (Li et al., "No pane, no gain").

The paper assumes tumbling windows but notes (§3.1) that sliding-window
queries evaluate efficiently over tumbling sub-aggregates — *panes* — and
(§3.5.1) that this is precisely why temporal attributes must not join a
partitioning set: re-allocating groups mid-window would corrupt pane
reassembly.

:class:`SlidingWindowAggregate` evaluates a GSQL aggregation query under
sliding-window semantics:

* the query's (single) temporal group-by column indexes the *pane*;
* per-pane partial aggregate states are computed exactly like the
  distributed SUB operator (§5.2.2) — the same states a leaf host ships;
* each window of ``window_panes`` panes, advancing by ``slide_panes``,
  merges its panes' states, finalizes, applies HAVING and the SELECT
  projection.

Because pane states are ordinary partial-aggregation states, the same
combiner consumes *shipped* per-host SUB rows unchanged —
:func:`combine_partials` — which is how a distributed deployment
evaluates sliding windows on the aggregator while leaves only ever
compute tumbling panes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..expr.evaluator import compile_expr
from ..gsql.analyzer import AnalyzedNode, NodeKind
from .aggregates import GroupAccumulator, aggregate_impl, state_columns
from .operators import Batch, Row, SubAggregateOp


@dataclass(frozen=True)
class WindowSpec:
    """A sliding window measured in panes.

    ``window_panes=5, slide_panes=1`` over 60-second panes is the classic
    "5-minute window sliding every minute".  ``window_panes ==
    slide_panes`` degenerates to tumbling windows.
    """

    window_panes: int
    slide_panes: int

    def __post_init__(self):
        if self.window_panes <= 0 or self.slide_panes <= 0:
            raise ValueError("window and slide must be positive pane counts")
        if self.slide_panes > self.window_panes:
            raise ValueError("slide larger than window would drop panes")

    @property
    def is_tumbling(self) -> bool:
        return self.window_panes == self.slide_panes

    def window_ends_covering(self, panes: Iterable[int]) -> List[int]:
        """End-pane labels of every window intersecting the given panes.

        Windows are aligned to multiples of ``slide_panes``: the window
        labelled by end pane ``e`` covers ``[e - window_panes + 1, e]``
        where ``(e + 1) % slide_panes == 0``.
        """
        panes = list(panes)
        if not panes:
            return []
        lowest, highest = min(panes), max(panes)
        first_end = lowest  # earliest window that could include `lowest`
        # align up to the next end boundary
        remainder = (first_end + 1) % self.slide_panes
        if remainder:
            first_end += self.slide_panes - remainder
        last_end = highest + self.window_panes - 1
        ends = []
        end = first_end
        while end <= last_end:
            if end - self.window_panes + 1 <= highest and end >= lowest:
                ends.append(end)
            end += self.slide_panes
        return ends


class SlidingWindowAggregate:
    """Sliding-window evaluation of an aggregation node via panes."""

    def __init__(
        self,
        node: AnalyzedNode,
        spec: WindowSpec,
        pane_column: Optional[str] = None,
    ):
        if node.kind is not NodeKind.AGGREGATION:
            raise ValueError(f"{node.name} is not an aggregation node")
        temporal = [g.name for g in node.group_by if g.is_temporal]
        if pane_column is None:
            if len(temporal) != 1:
                raise ValueError(
                    f"{node.name} needs exactly one temporal group-by column "
                    f"to serve as the pane index; found {temporal}"
                )
            pane_column = temporal[0]
        elif pane_column not in (g.name for g in node.group_by):
            raise ValueError(f"{pane_column!r} is not a group-by column")
        self._node = node
        self._spec = spec
        self._pane_column = pane_column
        self._sub = SubAggregateOp(node)
        self._key_names = [
            g.name for g in node.group_by if g.name != pane_column
        ]
        self._state_names = state_columns(node.aggregates)
        self._impls = [aggregate_impl(call.func) for call in node.aggregates]
        self._slots = [call.slot for call in node.aggregates]
        self._having = (
            compile_expr(node.having) if node.having is not None else None
        )
        self._outputs = [
            (column.name, compile_expr(expr))
            for column, expr in zip(node.columns, node.select_exprs)
        ]

    @property
    def pane_column(self) -> str:
        return self._pane_column

    def process(self, rows: Batch) -> Batch:
        """Full evaluation: tumbling panes, then window reassembly."""
        return self.combine_partials(self._sub.process(rows))

    def combine_partials(self, sub_rows: Batch) -> Batch:
        """Window reassembly over (possibly shipped) pane states.

        ``sub_rows`` are SUB-operator outputs: group-by columns plus raw
        aggregate states.  Rows for the same (pane, group) — e.g. from
        different hosts — merge first; each window intersecting the input
        panes then merges its panes.
        """
        panes = self._merge_by_pane(sub_rows)
        spec = self._spec
        results: Batch = []
        by_pane: Dict[int, Dict[tuple, GroupAccumulator]] = {}
        for (pane, key), accumulator in panes.items():
            by_pane.setdefault(pane, {})[key] = accumulator
        ends = spec.window_ends_covering(by_pane)
        for end in ends:
            start = end - spec.window_panes + 1
            window_groups: Dict[tuple, GroupAccumulator] = {}
            for pane in range(start, end + 1):
                for key, accumulator in by_pane.get(pane, {}).items():
                    target = window_groups.get(key)
                    if target is None:
                        target = GroupAccumulator(self._impls)
                        window_groups[key] = target
                    target.merge_states(tuple(accumulator.states))
            results.extend(self._emit(end, window_groups))
        return results

    def _merge_by_pane(
        self, sub_rows: Batch
    ) -> Dict[Tuple[int, tuple], GroupAccumulator]:
        panes: Dict[Tuple[int, tuple], GroupAccumulator] = {}
        key_names = self._key_names
        state_names = self._state_names
        pane_column = self._pane_column
        for row in sub_rows:
            pane = row[pane_column]
            key = tuple(row[name] for name in key_names)
            accumulator = panes.get((pane, key))
            if accumulator is None:
                accumulator = GroupAccumulator(self._impls)
                panes[(pane, key)] = accumulator
            accumulator.merge_states(tuple(row[name] for name in state_names))
        return panes

    def _emit(
        self, window_end: int, groups: Dict[tuple, GroupAccumulator]
    ) -> Batch:
        having = self._having
        results: Batch = []
        for key, accumulator in groups.items():
            group_row: Row = {self._pane_column: window_end}
            group_row.update(zip(self._key_names, key))
            group_row.update(zip(self._slots, accumulator.finals()))
            if having is not None and not having(group_row):
                continue
            results.append({name: fn(group_row) for name, fn in self._outputs})
        return results


def pane_expression(node: AnalyzedNode, pane_column: str):
    """The compiled pane-index expression of an aggregation node —
    convenience for callers (and test oracles) that need to bucket raw
    tuples by pane themselves."""
    for group in node.group_by:
        if group.name == pane_column:
            return compile_expr(group.expr)
    raise ValueError(f"{pane_column!r} is not a group-by column of {node.name}")
