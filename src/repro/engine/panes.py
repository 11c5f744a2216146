"""Sliding windows measured in panes (Li et al., "No pane, no gain").

The paper assumes tumbling windows but notes (§3.1) that sliding-window
queries evaluate efficiently over tumbling sub-aggregates — *panes* — and
(§3.5.1) that this is precisely why temporal attributes must not join a
partitioning set: re-allocating groups mid-window would corrupt pane
reassembly.

:class:`WindowSpec` is a ``RANGE``/``SLIDE`` clause in panes, and says
which windows an input's panes reach.  The query's (single) temporal
group-by column indexes the pane; the window labelled by end pane ``e``
covers panes ``[e - window_panes + 1, e]``.  The kernels reassemble
windows from pane states
(:class:`~repro.engine.variants.ColumnarSlidingOp`); the oracle folds each
window's raw rows by definition
(:class:`~repro.engine.variants.WindowAggregateOp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List


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
