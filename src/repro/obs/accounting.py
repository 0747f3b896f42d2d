"""Per-query resource accounting: the :class:`QueryStats` ledger.

When enabled (:func:`enable`; off by default), every
:meth:`~repro.sparql.prepared.PreparedQuery.execute` and every
:meth:`~repro.federation.executor.FederatedEngine.execute` builds one
:class:`QueryStats` recording where the query's work went — rows scanned
and joined per strategy, plan-cache hit, dictionary decodes, wall seconds
per phase — and attaches it to the
result (``result.stats``). The slowlog (:mod:`repro.obs.slowlog`) stores
the same breakdown with each slow entry.

Contract: accounting is a pure listener. The executors take the exact
same code paths with accounting on or off (an observing codec subclass
counts decodes; the existing :class:`~repro.sparql.eval.EvalObserver`
hook meters operators), so a seeded run produces byte-identical results
either way — the tracing parity rule extended to accounting.
"""

from __future__ import annotations

import threading
from typing import Any

#: Process-global enable flag; read once per query (no hot-loop checks).
_enabled = False

_tls = threading.local()


def enable(on: bool = True) -> None:
    """Turn per-query accounting on (or off with ``on=False``)."""
    global _enabled
    _enabled = bool(on)


def disable() -> None:
    """Turn per-query accounting off."""
    enable(False)


def enabled() -> bool:
    """Is per-query accounting on?"""
    return _enabled


def note_plan_cache(hit: bool) -> None:
    """Record (thread-locally) whether the last ``prepare()`` was a cache
    hit, for the QueryStats of the execute that follows it."""
    _tls.plan_cache_hit = hit


def consume_plan_cache_note() -> bool | None:
    """Pop the thread-local plan-cache note (None when no prepare ran)."""
    hit = getattr(_tls, "plan_cache_hit", None)
    _tls.plan_cache_hit = None
    return hit


class QueryStats:
    """Resource accounting for one query execution.

    Attributes
    ----------
    kind:
        ``select`` / ``ask`` / ``construct`` / ``federated``.
    wall_seconds:
        End-to-end wall time of the execute call.
    phases:
        Phase name → wall seconds (``match``, ``filter``, ``project``,
        ``distinct``, ``order``, ``slice``, ``aggregate``; federation adds
        ``source_select`` and ``join``).
    strategies:
        Join strategy → ``{"patterns", "rows_in", "rows_out", "seconds"}``
        (``hash-join`` / ``index-nested-loop`` / ``path-scan``; federation
        uses ``bound-join`` / ``bound-join-group``).
    rows_out:
        Result rows (SELECT/federated), constructed triples (CONSTRUCT),
        or 0/1 (ASK).
    plan_cache_hit:
        Whether the plan came from the prepared-query cache (None when the
        execute did not go through :func:`~repro.sparql.prepared.prepare`).
    decodes:
        ID→term dictionary decodes performed while materializing results.
    endpoint_requests:
        Endpoint requests issued (federated only).
    """

    __slots__ = (
        "kind",
        "wall_seconds",
        "phases",
        "strategies",
        "rows_out",
        "plan_cache_hit",
        "decodes",
        "endpoint_requests",
    )

    def __init__(self, kind: str):
        self.kind = kind
        self.wall_seconds = 0.0
        self.phases: dict[str, float] = {}
        self.strategies: dict[str, dict[str, Any]] = {}
        self.rows_out = 0
        self.plan_cache_hit: bool | None = None
        self.decodes = 0
        self.endpoint_requests = 0

    def note_phase(self, op: str, seconds: float) -> None:
        self.phases[op] = self.phases.get(op, 0.0) + seconds

    def note_strategy(
        self, strategy: str, rows_in: int, rows_out: int, seconds: float
    ) -> None:
        record = self.strategies.get(strategy)
        if record is None:
            record = self.strategies[strategy] = {
                "patterns": 0, "rows_in": 0, "rows_out": 0, "seconds": 0.0,
            }
        record["patterns"] += 1
        record["rows_in"] += rows_in
        record["rows_out"] += rows_out
        record["seconds"] += seconds

    def to_dict(self) -> dict:
        """JSON-serializable form (slowlog detail, report tooling)."""
        return {
            "kind": self.kind,
            "wall_seconds": self.wall_seconds,
            "phases": dict(self.phases),
            "strategies": {
                name: dict(record) for name, record in self.strategies.items()
            },
            "rows_out": self.rows_out,
            "plan_cache_hit": self.plan_cache_hit,
            "decodes": self.decodes,
            "endpoint_requests": self.endpoint_requests,
        }

    def __repr__(self):
        return (
            f"<QueryStats {self.kind} wall={self.wall_seconds:.6f}s "
            f"rows={self.rows_out} decodes={self.decodes} "
            f"strategies={sorted(self.strategies)}>"
        )


__all__ = [
    "QueryStats",
    "consume_plan_cache_note",
    "disable",
    "enable",
    "enabled",
    "note_plan_cache",
]
