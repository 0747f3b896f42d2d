"""Hierarchical spans: the one span API behind timing aggregates and traces.

A span is a named, timed region of execution. Nesting builds a path:
entering ``span("alex.episode.run")`` and, inside it,
``span("alex.feature.explore")`` records wall time under
``"alex.episode.run"`` and ``"alex.episode.run/alex.feature.explore"``.
Every span is *aggregated*: each distinct path keeps one running
``(count, total_seconds)`` pair, so a million episodes cost two dict slots,
not a million records.

When the registry carries an enabled :class:`~repro.obs.trace.Tracer`, the
same span is also a trace span. Entering it takes trace/span/parent IDs
from the tracer; a span with no traced parent starts a new trace and makes
the head-based sampling decision that everything inside inherits. Leaving
a sampled span appends one ``repro-trace/1`` span record, timed by the same
``perf_counter`` pair as the aggregate. A span entered before the tracer
was installed stays invisible to it.

The active span stack is thread-local per registry; concurrently running
threads each see their own nesting.
"""

from __future__ import annotations

import time


class SpanAggregate:
    """Running totals for one span path."""

    __slots__ = ("path", "count", "total_seconds")

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self.total_seconds = 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        self.count += count
        self.total_seconds += seconds

    def snapshot(self) -> dict:
        return {"path": self.path, "count": self.count, "total_seconds": self.total_seconds}

    def __repr__(self):
        return f"<SpanAggregate {self.path!r} n={self.count} {self.total_seconds:.6g}s>"


class Span:
    """Context manager for one timed region; created by ``obs.span`` and
    ``Registry.span``.

    ``trace_id`` / ``span_id`` / ``parent_id`` are ``None`` and ``sampled``
    is false unless a tracer recorded the span, so callers can correlate
    external records (e.g. :class:`~repro.errors.FederationError` carries
    the active trace ID). Reentrant per instance is not supported — create
    a new one per block (``span(name)`` does exactly that).
    """

    __slots__ = (
        "_registry", "name", "attrs", "path", "elapsed", "_started",
        "tracer", "trace_id", "span_id", "parent_id", "sampled",
    )

    def __init__(self, registry, name: str, attrs: dict):
        if not name or "/" in name:
            from repro.errors import ObsError

            raise ObsError(f"span names must be non-empty and '/'-free, got {name!r}")
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self.path: str | None = None
        self.elapsed: float | None = None
        self._started = 0.0
        self.tracer = None
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.sampled = False

    def __enter__(self) -> "Span":
        registry = self._registry
        stack = registry._span_stack()
        parent = stack[-1] if stack else None
        self.path = parent.path + "/" + self.name if parent is not None else self.name
        tracer = registry.tracer
        if tracer is not None and tracer.enabled:
            self.tracer = tracer
            if parent is not None and parent.tracer is tracer:
                self.trace_id = parent.trace_id
                self.parent_id = parent.span_id
                self.sampled = parent.sampled
            else:
                self.sampled = tracer._sample()
                self.trace_id = tracer._new_id() if self.sampled else None
            if self.sampled:
                self.span_id = tracer._new_id()
        stack.append(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._started
        stack = self._registry._span_stack()
        # Tolerate exotic unwinding: pop to (and including) this span.
        while stack:
            if stack.pop() is self:
                break
        self._registry._record_span(self.path, self.elapsed)
        if self.sampled:
            self.tracer._record_span(self, exc_type.__name__ if exc_type else None)
