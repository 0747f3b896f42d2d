"""``repro.obs.trace`` — structured event tracing (the ``repro-trace/1`` schema).

Where the rest of :mod:`repro.obs` *aggregates* (a million episodes cost two
dict slots), this module *records*: individual, timestamped, attributed
events correlated by trace and span IDs. It exists to answer questions the
aggregates cannot — "why did the engine explore feature F and discover link
L?", "where did this federated query spend its time?" — from a run's
artifacts alone.

Model
-----

* A **trace** is one logical operation (an episode, a query execution). It
  is identified by a 64-bit hex ``trace`` ID and holds a tree of spans.
* A **span** is a timed region inside a trace, with a ``span`` ID and a
  ``parent`` span ID (``None`` for the root). Spans are the ordinary
  :func:`repro.obs.span` regions (:mod:`repro.obs.spans`): with a tracer
  installed, each one also records here. Entering a span when no trace is
  active *starts a new trace* — the head-based sampling decision is made
  exactly there and inherited by everything inside.
* An **event** is a point-in-time record attached to the innermost active
  span (or recorded trace-less when none is active — engines driven outside
  a session still leave an audit trail).

Records are plain dicts::

    {"trace": "9f…", "span": "01…", "parent": null, "name": "alex.episode.run",
     "kind": "span", "t": 0.01324, "dur": 0.00213, "attrs": {...}}

``t`` is a monotonic offset in seconds from the tracer's epoch
(:func:`time.perf_counter` based — immune to wall-clock adjustment), ``dur``
is present on spans only. Event and span names follow the same dotted
``subsystem.noun.verb`` convention as metric names (lint rule R007).

Determinism, sampling, overhead
-------------------------------

IDs come from the tracer's private :class:`random.Random` — seeded tracers
produce identical ID sequences run over run, and the tracer **never touches
any engine RNG**, so enabling tracing cannot change a seeded run's results.
``sample`` < 1.0 keeps that fraction of *traces* (decided once at the root
span; unsampled traces record nothing). With no tracer installed — the
default — every helper is a constant-time no-op and spans only aggregate;
instrumented hot paths fetch :func:`active` once and skip attribute
construction entirely.

The buffer is a bounded ring: once ``capacity`` records exist, the oldest
are evicted and counted in ``dropped`` (never silently).

Composition with :class:`~repro.obs.registry.Registry`
------------------------------------------------------

A tracer is *installed on a registry* (``trace.install()`` targets the
current one). Registry snapshots then carry an ``events`` section, and
``Registry.merge`` folds incoming events in, so a snapshot taken in one
registry carries its audit trail into another along with its metrics.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Iterable

from repro.errors import ObsError

#: Versioned schema tag stamped on payloads and JSONL headers.
TRACE_SCHEMA = "repro-trace/1"

#: Default ring-buffer capacity (records), chosen so a full experiment run
#: fits while a runaway loop cannot exhaust memory.
DEFAULT_CAPACITY = 65536

_ATOMS = (str, int, float, bool, type(None))


def _clean(value: Any) -> Any:
    """Coerce an attribute value to something JSON-serializable."""
    if isinstance(value, _ATOMS):
        return value
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_clean(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=str)
        return items
    return str(value)


class Tracer:
    """A bounded, thread-safe recorder of trace events.

    ``enabled=False`` builds a pure *holder*: it records nothing new but
    still absorbs and exports — the shape :meth:`Registry.merge` uses to
    carry merged events in a registry that never traced locally.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sample: float = 1.0,
        seed: int | None = None,
        enabled: bool = True,
    ):
        if capacity < 1:
            raise ObsError(f"tracer capacity must be >= 1, got {capacity}")
        if not (0.0 <= sample <= 1.0):
            raise ObsError(f"tracer sample rate must be in [0, 1], got {sample}")
        self.capacity = capacity
        self.sample = sample
        self.seed = seed
        self.enabled = enabled
        self.dropped = 0
        self._records: list[dict] = []
        self._start = 0  # ring-buffer head index into _records
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _new_id(self) -> str:
        with self._lock:
            return f"{self._rng.getrandbits(64):016x}"

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _append(self, record: dict) -> None:
        with self._lock:
            if len(self._records) - self._start >= self.capacity:
                self._start += 1
                self.dropped += 1
                if self._start > self.capacity:
                    # amortized compaction keeps memory bounded at ~2x capacity
                    self._records = self._records[self._start:]
                    self._start = 0
            self._records.append(record)

    def _sample(self) -> bool:
        """The head-based sampling decision for a new trace's root span."""
        if self.sample >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < self.sample

    def _record_span(self, span, error: str | None) -> None:
        """Append the record of a sampled, finished :class:`~repro.obs.spans.Span`."""
        attrs = dict(span.attrs)
        if error is not None:
            attrs["error"] = error
        self._append({
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": "span",
            "t": round(span._started - self._epoch, 9),
            "dur": round(span.elapsed, 9),
            "attrs": _clean(attrs),
        })

    def _record_event(
        self, name: str, attrs: dict, trace_id: str | None, span_id: str | None
    ) -> None:
        self._append({
            "trace": trace_id,
            "span": self._new_id(),
            "parent": span_id,
            "name": name,
            "kind": "event",
            "t": round(self._now(), 9),
            "dur": None,
            "attrs": _clean(attrs),
        })

    # ------------------------------------------------------------------ #
    # Public recording API
    # ------------------------------------------------------------------ #

    def event(self, name: str, **attrs) -> None:
        """Record a point event under the innermost active span.

        The innermost span is the top of the current registry's span stack.
        Outside any span this tracer recorded, the event is recorded
        trace-less (``trace: null``) so direct engine use still leaves an
        audit trail; inside an *unsampled* trace it is dropped with the rest
        of the trace.
        """
        if not self.enabled:
            return
        stack = _registry()._span_stack()
        top = stack[-1] if stack else None
        if top is not None and top.tracer is self:
            if top.sampled:
                self._record_event(name, attrs, top.trace_id, top.span_id)
            return
        self._record_event(name, attrs, None, None)

    # ------------------------------------------------------------------ #
    # Buffer access / export
    # ------------------------------------------------------------------ #

    def records(self) -> list[dict]:
        """A copy of the buffered records, oldest first."""
        with self._lock:
            return self._records[self._start:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records) - self._start

    def clear(self) -> None:
        with self._lock:
            self._records = []
            self._start = 0
            self.dropped = 0

    def payload(self) -> dict:
        """The versioned dict embedded in registry snapshots (``events``)."""
        with self._lock:
            # One locked section so the dropped count stays coherent with
            # the record list it was computed against (the lock is not
            # reentrant — self.records() must not be called from here).
            return {
                "schema": TRACE_SCHEMA,
                "dropped": self.dropped,
                "records": self._records[self._start:],
            }

    def absorb(self, payload: dict) -> None:
        """Fold an exported payload (e.g. another tracer's) into this buffer."""
        if payload.get("schema") != TRACE_SCHEMA:
            raise ObsError(f"unsupported trace schema: {payload.get('schema')!r}")
        with self._lock:
            self.dropped += int(payload.get("dropped", 0))
        for record in payload.get("records", ()):
            self._append(record)

    def write_jsonl(self, path: str) -> None:
        """Export as JSONL: one header line, then one record per line."""
        payload = self.payload()
        write_jsonl(path, payload["records"], dropped=payload["dropped"])

    def __repr__(self):
        state = "enabled" if self.enabled else "holder"
        with self._lock:
            count = len(self._records) - self._start
            dropped = self.dropped
        return f"<Tracer {state}: {count} records, {dropped} dropped>"


# --------------------------------------------------------------------- #
# JSONL round-trip
# --------------------------------------------------------------------- #


def write_jsonl(path: str, records: Iterable[dict], dropped: int = 0) -> None:
    """Write trace ``records`` to ``path`` under the ``repro-trace/1`` schema."""
    records = list(records)
    with open(path, "w", encoding="utf-8") as handle:
        header = {"schema": TRACE_SCHEMA, "dropped": dropped, "count": len(records)}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_jsonl(path: str) -> dict:
    """Read a file written by :func:`write_jsonl`; returns a payload dict.

    Validates the schema tag and the header's record count, so a truncated
    export fails loudly instead of silently replaying a partial trail.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in (raw.strip() for raw in handle) if line]
    if not lines:
        raise ObsError(f"empty trace file: {path!r}")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise ObsError(f"not a {TRACE_SCHEMA} trace file: {path!r}")
    records = [json.loads(line) for line in lines[1:]]
    expected = header.get("count")
    if expected is not None and expected != len(records):
        raise ObsError(
            f"trace file {path!r} is truncated: header says {expected} "
            f"records, found {len(records)}"
        )
    return {
        "schema": TRACE_SCHEMA,
        "dropped": int(header.get("dropped", 0)),
        "records": records,
    }


# --------------------------------------------------------------------- #
# Module-level API over the *current registry's* tracer
# --------------------------------------------------------------------- #

_obs = None


def _registry():
    # Lazy import: repro.obs imports this module at package init.
    global _obs
    if _obs is None:
        from repro import obs as _module

        _obs = _module
    return _obs.get_registry()


def install(
    capacity: int = DEFAULT_CAPACITY,
    sample: float = 1.0,
    seed: int | None = None,
) -> Tracer:
    """Install a fresh tracer on the current registry and return it."""
    tracer = Tracer(capacity=capacity, sample=sample, seed=seed)
    _registry().tracer = tracer
    return tracer


def uninstall() -> Tracer | None:
    """Remove the current registry's tracer (returning it, with its events)."""
    registry = _registry()
    tracer, registry.tracer = registry.tracer, None
    return tracer


def active() -> Tracer | None:
    """The current registry's tracer when it is recording, else ``None``.

    The one-line guard for hot paths::

        tracer = trace.active()
        if tracer is not None:
            tracer.event("alex.link.discover", link=str(link))
    """
    tracer = _registry().tracer
    if tracer is not None and tracer.enabled:
        return tracer
    return None


def event(name: str, **attrs) -> None:
    """A point event on the active tracer; no-op when tracing is off."""
    tracer = active()
    if tracer is not None:
        tracer.event(name, **attrs)


def current_trace_id() -> str | None:
    """The innermost active span's trace ID on this thread, or ``None``
    (no span, or a span that no tracer sampled)."""
    stack = _registry()._span_stack()
    return stack[-1].trace_id if stack else None


# --------------------------------------------------------------------- #
# Rendering (the body of ``repro trace show|summary``)
# --------------------------------------------------------------------- #


def _by_trace(records: list[dict]) -> dict[str | None, list[dict]]:
    grouped: dict[str | None, list[dict]] = {}
    for record in records:
        grouped.setdefault(record.get("trace"), []).append(record)
    return grouped


def render_summary(records: list[dict], top: int = 10, dropped: int = 0) -> str:
    """Event counts by name and the slowest spans, as text."""
    lines = []
    traces = _by_trace(records)
    traceless = len(traces.pop(None, []))
    lines.append(
        f"{len(records)} record(s) in {len(traces)} trace(s)"
        + (f" + {traceless} trace-less" if traceless else "")
        + (f", {dropped} dropped" if dropped else "")
    )
    counts: dict[tuple[str, str], int] = {}
    for record in records:
        key = (record.get("kind", "event"), record.get("name", "?"))
        counts[key] = counts.get(key, 0) + 1
    if counts:
        lines.append("events by type:")
        for (kind, name), count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {kind:<6} {name:<44} {count:>8}")
    spans = [r for r in records if r.get("kind") == "span" and r.get("dur") is not None]
    spans.sort(key=lambda r: -r["dur"])
    if spans:
        lines.append(f"slowest spans (top {min(top, len(spans))}):")
        for record in spans[:top]:
            lines.append(
                f"  {record['name']:<44} {record['dur'] * 1000:>10.3f} ms  "
                f"trace={str(record.get('trace'))[:8]}"
            )
    return "\n".join(lines)


def render_waterfall(
    records: list[dict], trace_id: str | None = None, width: int = 28
) -> str:
    """Per-trace text waterfall: span tree with offset/duration bars, point
    events inline — the replay view of ``repro trace show``."""
    lines: list[str] = []
    grouped = _by_trace(records)
    traceless = grouped.pop(None, [])
    wanted = list(grouped.items())
    if trace_id is not None:
        wanted = [
            (tid, recs) for tid, recs in wanted
            if tid is not None and tid.startswith(trace_id)
        ]
        if not wanted:
            return f"no trace matching {trace_id!r}"
    for tid, trace_records in wanted:
        spans = [r for r in trace_records if r["kind"] == "span"]
        events = [r for r in trace_records if r["kind"] == "event"]
        t0 = min((r["t"] for r in trace_records), default=0.0)
        horizon = max(
            (r["t"] + (r["dur"] or 0.0) for r in trace_records), default=t0
        ) - t0 or 1e-9
        lines.append(
            f"trace {tid}  ({len(spans)} span(s), {len(events)} event(s), "
            f"{horizon * 1000:.3f} ms)"
        )
        children: dict[str | None, list[dict]] = {}
        for record in trace_records:
            children.setdefault(record.get("parent"), []).append(record)
        for bucket in children.values():
            bucket.sort(key=lambda r: (r["t"], r["span"] or ""))

        def emit(record: dict, depth: int) -> None:
            offset = record["t"] - t0
            duration = record["dur"]
            start_col = min(width - 1, int(width * offset / horizon))
            if duration is not None:
                span_cols = max(1, int(width * duration / horizon))
                bar = " " * start_col + "#" * min(span_cols, width - start_col)
                timing = f"{duration * 1000:>9.3f} ms"
            else:
                bar = " " * start_col + "|"
                timing = f"@{offset * 1000:>8.3f} ms"
            bar = bar.ljust(width)
            label = "  " * depth + record["name"]
            attrs = record.get("attrs") or {}
            suffix = ""
            if attrs:
                inner = ", ".join(
                    f"{key}={attrs[key]}" for key in sorted(attrs)
                )
                suffix = f"  {{{inner}}}"
                if len(suffix) > 120:
                    suffix = suffix[:117] + "...}"
            lines.append(f"  {label:<44} {timing} [{bar}]{suffix}")
            for child in children.get(record["span"], ()):
                emit(child, depth + 1)

        for root in children.get(None, ()):
            emit(root, 0)
        lines.append("")
    if traceless:
        lines.append(f"{len(traceless)} trace-less event(s):")
        for record in traceless:
            attrs = record.get("attrs") or {}
            inner = ", ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
            lines.append(f"  @{record['t'] * 1000:>8.3f} ms  {record['name']}  {{{inner}}}")
    return "\n".join(lines).rstrip()
