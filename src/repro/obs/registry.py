"""The instrument registry: creation, snapshots, merging, rendering.

One :class:`Registry` owns a namespace of instruments. Callers get-or-create
instruments by ``(name, labels)`` identity; asking for an existing name with
a different instrument kind is an error (one name, one meaning).

Snapshots are plain JSON-serializable dicts under a versioned schema
(:data:`SNAPSHOT_VERSION`), so they survive files and process boundaries:
:meth:`Registry.merge` folds any number of them into one whole-run view. Merge semantics:

* counters and span aggregates **sum**;
* histograms sum bucket-by-bucket (boundaries must match);
* gauges are **last-write-wins** (a gauge is a level, not a flow).
"""

from __future__ import annotations

import json
import threading

from repro.errors import ObsError
from repro.obs.instruments import (
    DEFAULT_BOUNDARIES,
    DEFAULT_LATENCY_BOUNDARIES,
    SNAPSHOT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    Timer,
    labels_to_pairs,
)
from repro.obs.spans import Span, SpanAggregate
from repro.obs.trace import Tracer

#: Version stamped into every snapshot; bump on schema changes.
SNAPSHOT_VERSION = 1


class Registry:
    """A namespace of typed instruments plus span aggregates.

    A registry may additionally carry a :class:`~repro.obs.trace.Tracer`
    (``self.tracer``, installed via :func:`repro.obs.trace.install`); its
    buffered events travel in snapshots under the optional ``events`` key
    and fold across :meth:`merge` like every other section.
    """

    def __init__(self, name: str = "default"):
        self.name = name
        self._lock = threading.Lock()
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}
        self._spans: dict[str, SpanAggregate] = {}
        self._local = threading.local()
        self.tracer: Tracer | None = None

    # ------------------------------------------------------------------ #
    # Instrument creation (get-or-create)
    # ------------------------------------------------------------------ #

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, labels_to_pairs(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise ObsError(
                    f"instrument {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ObsError(
                    f"instrument {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, boundaries: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels,
            boundaries=tuple(boundaries) if boundaries is not None else DEFAULT_BOUNDARIES,
        )

    def timer(self, name: str, **labels) -> Timer:
        """A fresh timing context over a latency histogram (seconds)."""
        return self._get_or_create(
            Histogram, name, labels, boundaries=DEFAULT_LATENCY_BOUNDARIES
        ).time()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def span(self, name: str, **attrs) -> Span:
        """A ``with``-able span (see :mod:`repro.obs.spans`); ``attrs`` ride
        on its trace record when a tracer samples it."""
        return Span(self, name, attrs)

    def _span_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_span(self, path: str, seconds: float, count: int = 1) -> None:
        aggregate = self._spans.get(path)
        if aggregate is None:
            with self._lock:
                aggregate = self._spans.setdefault(path, SpanAggregate(path))
        aggregate.add(seconds, count)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """The registry's state as a JSON-serializable dict (see module doc)."""
        with self._lock:
            # Copy under the lock: a concurrent get-or-create must not grow
            # the dicts mid-iteration, and the tracer slot is read once so a
            # racing uninstall() cannot null it between check and use.
            instruments = sorted(self._instruments.items())
            aggregates = [self._spans[path] for path in sorted(self._spans)]
            tracer = self.tracer
        counters, gauges, histograms = [], [], []
        for (_, _), instrument in instruments:
            {"counter": counters, "gauge": gauges, "histogram": histograms}[
                instrument.kind
            ].append(instrument.snapshot())
        snapshot = {
            "format_version": SNAPSHOT_VERSION,
            "registry": self.name,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": [aggregate.snapshot() for aggregate in aggregates],
        }
        if tracer is not None and (len(tracer) or tracer.dropped):
            snapshot["events"] = tracer.payload()
        return snapshot

    def merge(self, snapshot: dict, extra_labels: dict | None = None) -> None:
        """Fold a snapshot (e.g. another registry's) into this registry.

        ``extra_labels`` are added to every incoming instrument — pass e.g.
        ``{"partition": name}`` to keep per-partition breakdowns instead of
        aggregating.
        """
        version = snapshot.get("format_version")
        if version != SNAPSHOT_VERSION:
            raise ObsError(f"unsupported obs snapshot version: {version!r}")
        extra = extra_labels or {}
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **{**entry["labels"], **extra}).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **{**entry["labels"], **extra}).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            histogram = self.histogram(
                entry["name"], boundaries=tuple(entry["boundaries"]),
                **{**entry["labels"], **extra},
            )
            if list(histogram.boundaries) != list(entry["boundaries"]):
                raise ObsError(
                    f"histogram {entry['name']!r} bucket boundaries do not match"
                )
            for index, count in enumerate(entry["counts"]):
                histogram.counts[index] += count
            histogram.count += entry["count"]
            histogram.sum += entry["sum"]
            if entry["min"] is not None:
                histogram.min = (
                    entry["min"] if histogram.min is None else min(histogram.min, entry["min"])
                )
            if entry["max"] is not None:
                histogram.max = (
                    entry["max"] if histogram.max is None else max(histogram.max, entry["max"])
                )
        for entry in snapshot.get("spans", ()):
            self._record_span(entry["path"], entry["total_seconds"], entry["count"])
        events = snapshot.get("events")
        if events is not None:
            tracer = self.tracer
            if tracer is None:
                # A holder tracer: keeps the merged events exportable without
                # turning on local recording in a registry that never traced.
                tracer = self.tracer = Tracer(enabled=False)
            tracer.absorb(events)

    def render(self, top: int | None = None) -> str:
        """Human-readable text dump (the body of ``repro stats``).

        Span aggregates are sorted by total time **descending** so the hot
        paths lead; ``top`` limits every section to its N largest entries
        (counters/gauges by value, histograms by count, spans by total
        time), noting how many entries were elided.
        """
        if top is not None and top < 1:
            raise ObsError(f"render top must be >= 1, got {top}")
        snapshot = self.snapshot()
        lines = [f"== obs registry {self.name!r} =="]

        def label_suffix(labels: dict) -> str:
            if not labels:
                return ""
            inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
            return "{" + inner + "}"

        def clip(entries: list, key) -> list:
            if top is None or len(entries) <= top:
                return entries
            return sorted(entries, key=key)[:top]

        counters = clip(snapshot["counters"], key=lambda e: (-e["value"], e["name"]))
        gauges = clip(snapshot["gauges"], key=lambda e: (-e["value"], e["name"]))
        histograms = clip(snapshot["histograms"], key=lambda e: (-e["count"], e["name"]))
        spans = sorted(
            snapshot["spans"], key=lambda e: (-e["total_seconds"], e["path"])
        )
        if top is not None:
            spans = spans[:top]

        def elided(section: str, shown: list) -> str | None:
            hidden = len(snapshot[section]) - len(shown)
            return f"  ... ({hidden} more)" if hidden > 0 else None

        if counters:
            lines.append("counters:")
            for entry in counters:
                lines.append(
                    f"  {entry['name'] + label_suffix(entry['labels']):<52} "
                    f"{entry['value']:>12g}"
                )
            more = elided("counters", counters)
            if more:
                lines.append(more)
        if gauges:
            lines.append("gauges:")
            for entry in gauges:
                lines.append(
                    f"  {entry['name'] + label_suffix(entry['labels']):<52} "
                    f"{entry['value']:>12g}"
                )
            more = elided("gauges", gauges)
            if more:
                lines.append(more)
        if histograms:
            lines.append("histograms:")
            for entry in histograms:
                mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
                low = "-" if entry["min"] is None else f"{entry['min']:.6g}"
                high = "-" if entry["max"] is None else f"{entry['max']:.6g}"
                quantiles = " ".join(
                    f"{key}={entry[key]:.6g}"
                    for key, _ in SNAPSHOT_QUANTILES
                    if entry.get(key) is not None
                )
                lines.append(
                    f"  {entry['name'] + label_suffix(entry['labels']):<52} "
                    f"n={entry['count']} sum={entry['sum']:.6g} mean={mean:.6g} "
                    f"min={low} max={high}"
                    + (f" {quantiles}" if quantiles else "")
                )
            more = elided("histograms", histograms)
            if more:
                lines.append(more)
        if spans:
            lines.append("spans (by total time):")
            for entry in spans:
                lines.append(
                    f"  {entry['path']:<52} "
                    f"n={entry['count']} total={entry['total_seconds']:.3f}s"
                )
            more = elided("spans", spans)
            if more:
                lines.append(more)
        if "events" in snapshot:
            events = snapshot["events"]
            lines.append(
                f"trace events: {len(events['records'])} buffered"
                + (f", {events['dropped']} dropped" if events["dropped"] else "")
            )
        if len(lines) == 1:
            lines.append("(no instruments recorded)")
        return "\n".join(lines)

    def dump_json(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=1, sort_keys=True)

    def reset(self) -> None:
        """Drop every instrument, span aggregate, and tracer (tests, fresh runs)."""
        with self._lock:
            self._instruments.clear()
            self._spans.clear()
        # The tracer slot is deliberately not lock-guarded state: it is
        # published by trace.install()/uninstall() as an atomic reference
        # assignment and read once into a local by every consumer (see
        # snapshot/merge), so clearing it outside the lock is safe.
        self.tracer = None

    def __repr__(self):
        with self._lock:
            instruments, span_paths = len(self._instruments), len(self._spans)
        return (
            f"<Registry {self.name!r}: {instruments} instruments, "
            f"{span_paths} span paths>"
        )


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by :meth:`Registry.dump_json`, validated."""
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict) or snapshot.get("format_version") != SNAPSHOT_VERSION:
        raise ObsError(f"not an obs snapshot (format_version mismatch): {path!r}")
    return snapshot


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of one counter across all its label sets in a snapshot."""
    return sum(
        entry["value"] for entry in snapshot.get("counters", ()) if entry["name"] == name
    )
