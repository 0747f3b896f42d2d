"""A bounded slow-operation log for queries and feedback episodes.

Off by default: no log exists until :func:`configure` installs one, so the
hot paths pay exactly one ``slowlog.active()`` check (the same guarded
pattern as :func:`repro.obs.trace.active`, accepted by the ALEX-C031
analyzer rule). When active, operations whose wall time reaches the
configured ``threshold`` are recorded — with their
:class:`~repro.obs.accounting.QueryStats` breakdown when per-query
accounting is also enabled — into a bounded ring (oldest entries fall
out), renderable by ``repro slowlog`` and flushed to JSON by
:meth:`~repro.core.engine.AlexEngine.close`.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any

from repro.errors import ObsError

#: Versioned schema tag for flushed slowlog payloads.
SLOWLOG_SCHEMA = "repro-slowlog/1"

#: Default ring capacity.
DEFAULT_CAPACITY = 256


class SlowLog:
    """Threshold + bounded ring of slow-operation entries (thread-safe)."""

    def __init__(
        self,
        threshold: float = 0.0,
        capacity: int = DEFAULT_CAPACITY,
        path: str | None = None,
    ):
        if threshold < 0:
            raise ObsError(f"slowlog threshold must be >= 0, got {threshold}")
        if capacity < 1:
            raise ObsError(f"slowlog capacity must be >= 1, got {capacity}")
        self.threshold = threshold
        self.capacity = capacity
        #: Default flush destination (``flush()``); None keeps it in memory.
        self.path = path
        self._lock = threading.Lock()
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._recorded = 0

    def record(
        self,
        kind: str,
        name: str,
        seconds: float,
        detail: dict[str, Any] | None = None,
    ) -> bool:
        """Record one operation if it reached the threshold.

        ``kind`` is the operation class (``query``, ``federated``,
        ``episode``); ``name`` identifies the instance (query text, episode
        tag); ``detail`` is any JSON-serializable breakdown (typically
        ``QueryStats.to_dict()``). Returns whether an entry was kept.
        """
        if seconds < self.threshold:
            return False
        with self._lock:
            self._recorded += 1
            entry = {"seq": self._recorded, "kind": kind, "name": name,
                     "seconds": seconds}
            if detail is not None:
                entry["detail"] = detail
            self._entries.append(entry)
        return True

    def entries(self) -> list[dict]:
        """The retained entries, oldest first (copies)."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def recorded(self) -> int:
        """Total entries ever recorded (including ones the ring evicted)."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_payload(self) -> dict:
        with self._lock:
            return {
                "schema": SLOWLOG_SCHEMA,
                "threshold": self.threshold,
                "capacity": self.capacity,
                "recorded": self._recorded,
                "entries": [dict(entry) for entry in self._entries],
            }

    def flush(self, path: str | None = None) -> str | None:
        """Write the payload as JSON to ``path`` (or the configured default).

        A no-op returning None when neither is set — flushing an in-memory
        slowlog must be safe to call unconditionally (engine close does).
        """
        target = path if path is not None else self.path
        if target is None:
            return None
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=1, sort_keys=True)
        return target

    def render(self, top: int | None = None) -> str:
        """Slowest-first text table of the retained entries."""
        entries = sorted(
            self.entries(), key=lambda entry: (-entry["seconds"], entry["seq"])
        )
        if top is not None:
            entries = entries[:top]
        lines = [
            f"== slowlog (threshold {self.threshold:g}s, "
            f"{self.recorded} recorded, {len(self)} retained) =="
        ]
        if not entries:
            lines.append("(no slow operations recorded)")
        for entry in entries:
            name = entry["name"].replace("\n", " ")
            if len(name) > 72:
                name = name[:69] + "..."
            line = f"  {entry['seconds']*1000:9.3f}ms  {entry['kind']:<10} {name}"
            detail = entry.get("detail")
            if detail:
                hints = []
                for key in ("rows_out", "decodes", "plan_cache_hit",
                            "endpoint_requests"):
                    value = detail.get(key)
                    if value not in (None, 0, 0.0):
                        hints.append(f"{key}={value}")
                if hints:
                    line += "  [" + " ".join(hints) + "]"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"<SlowLog threshold={self.threshold:g}s retained={len(self)}"
            f"/{self.capacity}>"
        )


#: The installed slowlog; None means disabled (the hot-path fast check).
_active: SlowLog | None = None


def configure(
    threshold: float = 0.0,
    capacity: int = DEFAULT_CAPACITY,
    path: str | None = None,
) -> SlowLog:
    """Install (and return) a fresh slowlog; replaces any previous one.

    ``threshold=0.0`` records every timed operation — useful for audits;
    raise it to keep only genuinely slow ones.
    """
    global _active
    _active = SlowLog(threshold=threshold, capacity=capacity, path=path)
    return _active


def disable() -> SlowLog | None:
    """Uninstall the slowlog; returns it (entries intact) or None."""
    global _active
    previous = _active
    _active = None
    return previous


def active() -> SlowLog | None:
    """The installed slowlog, or None — the one-check hot-path guard."""
    return _active


__all__ = [
    "DEFAULT_CAPACITY",
    "SLOWLOG_SCHEMA",
    "SlowLog",
    "active",
    "configure",
    "disable",
]
