"""In-memory span tracer for the traced benchmark run.

The tracer replaces public callables of tvtv under the name their caller
looks them up by (a module attribute, or ``HsCube.__post_init__``), so a
call made from inside the package is recorded without touching ``src/``.
Spans are recorded only while an operation span is open, are kept in memory
until the run ends, and every original callable is put back by
``Tracer.restore``.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None for a root
    op: Any                 # id of the operation the span belongs to
    size: float = 0.0       # work done by the call (elements, bytes), if measured


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its direct children cover.

    Children are clipped to their parent and overlapping children are merged,
    so the self times of a tree add up to the duration of its root.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Records nested spans of wrapped calls, one tree per operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _open(self, name: str, op: Any = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = self.spans[parent].op
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: Any, name: str = "operation") -> Iterator[Span]:
        """Open a root span; wrapped calls made inside it belong to ``op``."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        index = self._open(name, op)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner: Any, attr: str, name: str,
             size: Callable[[tuple, Any], float] | None = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``size(args, result)`` optionally measures the work of one call.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if size is not None:
                tracer.spans[index].size = size(args, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped callable, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


@dataclass(frozen=True)
class OpSummary:
    """Totals of one traced operation, keyed by span name."""

    duration: float                 # root span
    self_s: dict[str, float]
    calls: dict[str, int]
    size: dict[str, float]
    span_s: dict[str, float]        # summed durations, children included
    self_sum: float                 # self times of all spans, root included


def summarize(spans: list[Span], ops: Iterable[Any]) -> dict[Any, OpSummary]:
    """Group spans by operation and total their self times, calls and sizes."""
    selfs = self_times(spans)
    wanted = set(ops)
    acc: dict[Any, dict[str, Any]] = {}
    for span, own in zip(spans, selfs):
        if span.op not in wanted:
            continue
        a = acc.setdefault(span.op, {
            "duration": 0.0, "self_s": defaultdict(float),
            "calls": defaultdict(int), "size": defaultdict(float),
            "span_s": defaultdict(float), "self_sum": 0.0})
        if span.parent is None:
            a["duration"] = span.end - span.start
        a["self_s"][span.name] += own
        a["calls"][span.name] += 1
        a["size"][span.name] += span.size
        a["span_s"][span.name] += span.end - span.start
        a["self_sum"] += own
    return {op: OpSummary(**a) for op, a in acc.items()}


def arithmetic_error(summary: OpSummary) -> float:
    """Relative gap between the summed self times and the operation span."""
    return abs(summary.self_sum - summary.duration) / summary.duration
