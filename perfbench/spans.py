"""An in-memory span recorder that times calls into the program from outside.

:class:`Recorder` records one span per call: its name, start, end and the
index of its parent span. The benchmark opens spans around its own calls
(:meth:`Recorder.span`) and, for calls the program makes internally, patches
public methods for the duration of a run (:meth:`Recorder.patched`). Spans
stay in memory until the run ends; :meth:`Recorder.dump` writes them out.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so children never overlap and that covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NO_PARENT = -1


@dataclass
class LayerTotals:
    """Calls, total duration and total self time of one span name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Recorder:
    """Collects spans as ``[name, start, end, parent]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, function, name: str):
        if isinstance(function, classmethod):
            return classmethod(self._wrap(function.__func__, name))
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(index)

        return traced

    @contextmanager
    def patched(self, targets):
        """Record a span for every call of each ``(class, method, span name)``
        target while the block runs; the original methods come back after."""
        saved = []
        try:
            for owner, attribute, name in targets:
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def dump(self, handle, label: str) -> None:
        """Write every span to ``handle`` as one JSON line:
        ``[label, name, start, end, parent]``."""
        for span in self.spans:
            handle.write(json.dumps([label, *span]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent != NO_PARENT:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def totals_by_name(spans: list[list]) -> dict[str, LayerTotals]:
    """Calls, duration and self time summed per span name."""
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry.calls += 1
        entry.seconds += end - start
        entry.self_seconds += own
    return dict(totals)


def check_self_times(spans: list[list], root: int, tolerance: float = 1e-6) -> list[str]:
    """Problems with the span tree under ``root``; empty when it is sound.

    Every span must lie inside its parent's interval, and the self times
    of the root and all its descendants must add up to the root's
    duration within ``tolerance`` seconds.
    """
    problems = []
    inside = {root}
    for index in range(root + 1, len(spans)):
        name, start, end, parent = spans[index]
        if parent not in inside:
            continue
        inside.add(index)
        _, parent_start, parent_end, _ = spans[parent]
        if start < parent_start or end > parent_end:
            problems.append(f"span {index} ({name}) leaves its parent {parent}")
    own = self_times(spans)
    total = sum(own[index] for index in inside)
    duration = spans[root][2] - spans[root][1]
    if abs(total - duration) > tolerance:
        problems.append(
            f"self times under span {root} add up to {total:.9f}s, "
            f"its duration is {duration:.9f}s"
        )
    return problems
