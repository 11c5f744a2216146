"""In-memory spans for the traced pass.

A span is ``[name, start, end, parent, rep]``: ``parent`` is the index
of the enclosing span (-1 for a repetition's root) and ``rep`` the
repetition the span belongs to, so one repetition's spans share an
identifier.  Spans stay in a list while the benchmark runs and are
written once, at the end, by the caller.

Everything the benchmark traces runs in one thread, so sibling spans
never overlap and a span's *self time* is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Dict, Iterator, List, Optional

NAME, START, END, PARENT, REP = range(5)


class Tracer:
    """Records nested spans; ``begin``/``end`` are the hot-path calls."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.rep = 0
        self._stack: List[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rep])

    def leaf(self, name: str) -> list:
        """Append a childless span that starts now and return it; the
        caller moves its ``END`` forward for as long as it lasts."""
        parent = self._stack[-1] if self._stack else -1
        now = time.perf_counter()
        span = [name, now, now, parent, self.rep]
        self.spans.append(span)
        return span

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def totals(self, start: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name over ``spans[start:]`` (whole repetitions):
        summed inclusive seconds (``total``) and self seconds (``self``)."""
        spans = self.spans[start:]
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= start:
                covered[span[PARENT] - start] += span[END] - span[START]
        by_name: Dict[str, Dict[str, float]] = {}
        for span, child_seconds in zip(spans, covered):
            duration = span[END] - span[START]
            entry = by_name.setdefault(span[NAME], {"total": 0.0, "self": 0.0})
            entry["total"] += duration
            entry["self"] += duration - child_seconds
        return by_name

    def export(self) -> List[dict]:
        """The spans as JSON-ready dicts, times relative to the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        return [
            {
                "id": index,
                "name": span[NAME],
                "start": span[START] - origin,
                "end": span[END] - origin,
                "parent": span[PARENT],
                "rep": span[REP],
            }
            for index, span in enumerate(self.spans)
        ]


def span_factory(tracer: Optional[Tracer]) -> Callable[[str], ContextManager]:
    """``tracer.span``, or a do-nothing stand-in when tracing is off."""
    if tracer is None:
        return lambda name: nullcontext()
    return tracer.span
