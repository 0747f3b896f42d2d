"""Per-layer metrics of a traced run, named after the ``src/repro`` modules.

Times come from the spans the benchmark records around calls into each
layer; counts come from spans and from the counters the program already
emits in the default ``repro.obs`` registry. A metric whose layer a
workload does not run reads 0 (a ratio with no attempts is 0 too).
Set-up metrics are medians over the run's set-ups, loop metrics medians
over its traced sessions.
"""

from __future__ import annotations

import statistics

from spans import LayerTotals, totals_by_name

#: name → unit. README.md gives the end-to-end metric each moves.
PER_LAYER = {
    "datasets.generate_s": "s",
    "paris.run_s": "s",
    "paris.links_scored": "count",
    "paris.links_kept": "count",
    "features.build_s": "s",
    "features.admit_ratio": "ratio",
    "similarity.value_hit_ratio": "ratio",
    "similarity.attribute_hit_ratio": "ratio",
    "features.explore_calls": "count",
    "features.explore_s": "s",
    "features.explore_candidates": "count",
    "core.discover_ratio": "ratio",
    "core.feedback_calls": "count",
    "core.feedback_self_s": "s",
    "core.end_episode_s": "s",
    "core.links_discovered": "count",
    "core.links_removed": "count",
    "core.rollbacks": "count",
    "core.blacklist_size": "count",
    "links.add_calls": "count",
    "links.remove_calls": "count",
    "links.update_s": "s",
    "feedback.loop_s": "s",
    "feedback.judge_s": "s",
    "feedback.session_self_s": "s",
    "feedback.workload_self_s": "s",
    "feedback.generate_s": "s",
    "feedback.submit_self_s": "s",
    "feedback.queries_issued": "count",
    "feedback.answer_ratio": "ratio",
    "federation.select_calls": "count",
    "federation.select_s": "s",
    "federation.requests": "count",
    "federation.sameas_hit_ratio": "ratio",
    "sparql.plan_cache_hit_ratio": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _hit_ratio(counters, hits: str, misses: str, layer: str = "") -> float:
    found = counters[hits, layer]
    return _ratio(found, found + counters[misses, layer])


def _span_lookup(spans: list[list]):
    totals = totals_by_name(spans)
    return lambda name: totals.get(name, LayerTotals())


def setup_metrics(setup, spans: list[list]) -> dict[str, float]:
    """Layer metrics of one set-up."""
    span = _span_lookup(spans)
    counters = setup.counters
    return {
        "datasets.generate_s": span("datasets.generate").seconds,
        "paris.run_s": span("paris.run").seconds,
        "paris.links_scored": setup.record["scored_links"],
        "paris.links_kept": setup.record["initial_links"],
        "features.build_s": span("features.build").seconds,
        "features.admit_ratio": _ratio(
            counters["space.pairs.admitted", ""], counters["space.pairs.scanned", ""]
        ),
        "similarity.value_hit_ratio": _hit_ratio(
            counters, "similarity.cache.hits", "similarity.cache.misses", "value"
        ),
        "similarity.attribute_hit_ratio": _hit_ratio(
            counters, "similarity.cache.hits", "similarity.cache.misses", "attribute"
        ),
    }


def session_metrics(session, spans: list[list]) -> dict[str, float]:
    """Layer metrics of one traced session."""
    span = _span_lookup(spans)

    def counter(name: str) -> float:
        return session.counters[name, ""]

    issued = session.record.get("queries_issued", 0)

    return {
        "features.explore_calls": span("features.explore").calls,
        "features.explore_s": span("features.explore").seconds,
        "features.explore_candidates": counter("space.explore.candidates"),
        "core.discover_ratio": _ratio(
            counter("alex.links.discovered"), counter("space.explore.candidates")
        ),
        "core.feedback_calls": span("core.process_feedback").calls,
        "core.feedback_self_s": span("core.process_feedback").self_seconds,
        "core.end_episode_s": span("core.end_episode").seconds,
        "core.links_discovered": counter("alex.links.discovered"),
        "core.links_removed": counter("alex.links.removed"),
        "core.rollbacks": counter("alex.rollbacks"),
        "core.blacklist_size": session.blacklist_size,
        "links.add_calls": span("links.add").calls,
        "links.remove_calls": span("links.remove").calls,
        "links.update_s": span("links.add").seconds + span("links.remove").seconds,
        "feedback.judge_s": span("feedback.judge").seconds,
        "feedback.session_self_s": span("feedback.episode").self_seconds,
        "feedback.workload_self_s": span("feedback.workload_episode").self_seconds,
        "feedback.generate_s": span("feedback.generate").seconds,
        "feedback.submit_self_s": span("feedback.submit_query").self_seconds,
        "feedback.queries_issued": issued,
        "feedback.answer_ratio": _ratio(session.queries_answered, issued),
        "federation.select_calls": span("federation.select").calls,
        "federation.select_s": span("federation.select").seconds,
        "federation.requests": counter("federation.requests"),
        "federation.sameas_hit_ratio": _ratio(
            counter("federation.sameas.rewrites_hit"),
            counter("federation.sameas.rewrites_attempted"),
        ),
        "sparql.plan_cache_hit_ratio": _hit_ratio(
            session.counters, "sparql.plan_cache.hits", "sparql.plan_cache.misses"
        ),
    }


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    # the lower median, so a count stays a count of one run
    return {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}


def per_layer(setups, pairs) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit.

    ``setups`` are ``(setup, recorder)`` and ``pairs`` are ``(untraced
    session, traced session, traced recorder)`` for the same session seeds.
    ``feedback.loop_s`` is the untraced loop time of a session and
    ``trace.overhead`` the traced ÷ untraced loop time.
    """
    values = _medians([setup_metrics(setup, rec.spans) for setup, rec in setups])
    values.update(_medians([session_metrics(traced, rec.spans) for _, traced, rec in pairs]))
    values["feedback.loop_s"] = statistics.median_low(plain.loop_s for plain, _, _ in pairs)
    values["trace.overhead"] = sum(traced.loop_s for _, traced, _ in pairs) / sum(
        plain.loop_s for plain, _, _ in pairs
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
