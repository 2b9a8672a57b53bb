"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent)``; all spans of one benchmark run
share the recorder's ``run_id``.  Spans are opened only by the benchmark's
own files, around calls into the library's public functions, so the
library itself is never edited to be measured.  The first dot-separated
component of a span name is its layer (``network.topology`` belongs to
``network``); the root span of each workload pass is named ``pass``.

Spans stay in memory while the benchmark runs and are written out once, at
the end (:meth:`SpanRecorder.write`).
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder", "layer_of", "self_times", "nesting_errors"]


class Span:
    """One timed interval; ``parent`` is the id of the enclosing span."""

    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, span_id: int, name: str, start: float,
                 end: float, parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Records spans for one benchmark run; a disabled recorder records nothing.

    ``span(name)`` is a context manager nesting under whichever span is open;
    ``add(name, start, end)`` records a span measured by other means (the
    kernel-phase totals of one round) under the open span.
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _parent(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, self._parent())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append(Span(len(self.spans), name, start, end, self._parent()))

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "spans": [span.as_dict() for span in self.spans],
        }) + "\n")


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child_seconds: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] = child_seconds.get(span.parent, 0.0) + span.seconds
    totals: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + span.seconds - child_seconds.get(span.id, 0.0)
    return totals


def nesting_errors(spans: List[Span], slack: float = 1e-6) -> List[str]:
    """Describe every span that does not nest inside its parent, or overlaps a sibling."""
    by_id = {span.id: span for span in spans}
    errors = []
    siblings: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        if span.end < span.start:
            errors.append(f"span {span.id} {span.name} ends before it starts")
        siblings.setdefault(span.parent, []).append(span)
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            errors.append(f"span {span.id} {span.name} has unknown parent {span.parent}")
        elif span.start < parent.start - slack or span.end > parent.end + slack:
            errors.append(f"span {span.id} {span.name} escapes parent {parent.name}")
    for group in siblings.values():
        ordered = sorted(group, key=lambda span: span.start)
        for before, after in zip(ordered, ordered[1:]):
            if after.start < before.end - slack:
                errors.append(f"sibling spans {before.name} and {after.name} overlap")
    return errors
