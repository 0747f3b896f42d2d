"""``repro.obs`` — dependency-free observability for the whole library.

Instrumented code answers "where did the time and the feedback go?" with
four instrument kinds (:class:`Counter`, :class:`Gauge`, :class:`Histogram`,
:class:`Timer`) plus hierarchical :func:`span` timing, all collected in a
:class:`Registry`. A span is also the unit of :mod:`repro.obs.trace`: with a
tracer installed, the same ``obs.span`` records a trace span.

A process-global default registry backs the module-level helpers, so hot
paths instrument themselves in one line with no plumbing::

    from repro import obs

    obs.inc("alex.feedback.processed", verdict="positive")
    with obs.span("alex.feature.explore"):
        ...
    with obs.timer("sparql.query.seconds"):
        ...

Tests (and anything wanting isolation) swap the default atomically::

    with obs.use_registry() as registry:
        run_workload()
        snap = registry.snapshot()      # only this workload's metrics

Snapshots are versioned JSON dicts; :meth:`Registry.merge` folds worker
snapshots into one whole-run view (counters/histograms/spans sum, gauges
last-write-wins). ``obs.dump_json(path)`` / ``load_snapshot(path)`` round-
trip them through files. Naming convention: dotted lowercase
``subsystem.noun.verb`` names (``alex.links.discovered``,
``federation.requests``) with label dimensions as keyword arguments.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.instruments import (
    DEFAULT_BOUNDARIES,
    DEFAULT_LATENCY_BOUNDARIES,
    SNAPSHOT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    Timer,
    quantile_from_buckets,
)
from repro.obs.registry import SNAPSHOT_VERSION, Registry, counter_total, load_snapshot
from repro.obs.spans import Span, SpanAggregate
from repro.obs import accounting, slowlog, trace
from repro.obs.accounting import QueryStats
from repro.obs.export import render_prometheus, validate_exposition
from repro.obs.report import REPORT_SCHEMA, Reporter, load_report
from repro.obs.slowlog import SLOWLOG_SCHEMA, SlowLog
from repro.obs.trace import TRACE_SCHEMA, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BOUNDARIES",
    "DEFAULT_LATENCY_BOUNDARIES",
    "Gauge",
    "Histogram",
    "QueryStats",
    "REPORT_SCHEMA",
    "Registry",
    "Reporter",
    "SLOWLOG_SCHEMA",
    "SNAPSHOT_QUANTILES",
    "SNAPSHOT_VERSION",
    "SlowLog",
    "Span",
    "SpanAggregate",
    "TRACE_SCHEMA",
    "Timer",
    "Tracer",
    "accounting",
    "counter",
    "counter_total",
    "dump_json",
    "gauge",
    "get_registry",
    "histogram",
    "inc",
    "load_report",
    "load_snapshot",
    "merge",
    "observe",
    "quantile_from_buckets",
    "render",
    "render_prometheus",
    "reset",
    "set_gauge",
    "set_registry",
    "slowlog",
    "snapshot",
    "span",
    "timer",
    "trace",
    "use_registry",
    "validate_exposition",
]

_default_registry = Registry("default")


def get_registry() -> Registry:
    """The current process-global registry."""
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Replace the global registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: Registry | None = None):
    """Temporarily swap the global registry (fresh one by default).

    The opt-out for tests: everything instrumented inside the block lands in
    the swapped-in registry, leaving the global one untouched.
    """
    previous = set_registry(registry if registry is not None else Registry("scoped"))
    try:
        yield _default_registry
    finally:
        set_registry(previous)


# --------------------------------------------------------------------- #
# Hot-path helpers (resolve the registry at call time, so use_registry
# redirects already-instrumented code with no re-plumbing)
# --------------------------------------------------------------------- #


def counter(name: str, **labels) -> Counter:
    return _default_registry.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _default_registry.gauge(name, **labels)


def histogram(name: str, boundaries: tuple[float, ...] | None = None, **labels) -> Histogram:
    return _default_registry.histogram(name, boundaries, **labels)


def inc(name: str, amount: float = 1, **labels) -> None:
    """Increment the counter ``name`` (created on first use)."""
    _default_registry.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, **labels) -> None:
    _default_registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    """Record one observation into the histogram ``name``."""
    _default_registry.histogram(name, **labels).observe(value)


def timer(name: str, **labels) -> Timer:
    """A ``with``-able timer over the latency histogram ``name``."""
    return _default_registry.timer(name, **labels)


def span(name: str, **attrs) -> Span:
    """A ``with``-able hierarchical span named ``name``; also a trace span
    (carrying ``attrs``) when the registry has a tracer installed."""
    return Span(_default_registry, name, attrs)


def snapshot() -> dict:
    return _default_registry.snapshot()


def merge(snap: dict, extra_labels: dict | None = None) -> None:
    _default_registry.merge(snap, extra_labels)


def render(top: int | None = None) -> str:
    return _default_registry.render(top=top)


def dump_json(path: str) -> None:
    _default_registry.dump_json(path)


def reset() -> None:
    _default_registry.reset()
