"""Benchmark harness for feature-space construction.

Measures the naive quadratic scoring path against the prepared-entity fast
path on generated bundles of increasing size, proves parity between the
paths on every run, and emits a machine-readable record file
(``BENCH_space.json``) so speedups are tracked in-repo rather than asserted
in prose.

This module is a library: it never prints. ``repro bench`` (and the
``tools/bench.py`` wrapper) render :func:`render_report` and write the JSON.
Wall-clock numbers are environment-dependent by nature, so CI only checks
parity and schema — the committed ``BENCH_space.json`` documents a reference
machine (see ``docs/performance.md``).
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any

from repro import obs
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.features.feature_set import DEFAULT_THETA
from repro.features.space import FeatureSpace
from repro.rdf.entity import Entity, entities_of
from repro.similarity.prepared import clear_caches

#: Schema identifier of the emitted payload.
BENCH_FORMAT = "repro-bench/2"

#: Default output file, at the repo root by convention.
DEFAULT_OUT = "BENCH_space.json"

#: Generated bundles, smallest first. The acceptance gate reads the last
#: (largest) one; ``--quick`` keeps only the first for CI smoke runs.
BUNDLE_SPECS: tuple[PairSpec, ...] = (
    PairSpec(
        name="space-small",
        left_name="left",
        right_name="right",
        profiles=(PERSON_PROFILE,),
        n_shared=60,
        n_left_only=20,
        n_right_only=20,
        seed=11,
    ),
    PairSpec(
        name="space-medium",
        left_name="left",
        right_name="right",
        profiles=(PERSON_PROFILE,),
        n_shared=150,
        n_left_only=50,
        n_right_only=50,
        seed=11,
    ),
    PairSpec(
        name="space-large",
        left_name="left",
        right_name="right",
        profiles=(PERSON_PROFILE,),
        n_shared=400,
        n_left_only=133,
        n_right_only=133,
        seed=11,
    ),
)


def parity_mismatches(reference: FeatureSpace, candidate: FeatureSpace) -> int:
    """Number of links whose presence or feature scores differ.

    Zero means the two spaces are exactly equal: the same admitted links and,
    for each, bit-identical feature sets.
    """
    links_a = set(reference.links())
    links_b = set(candidate.links())
    mismatches = len(links_a ^ links_b)
    for link in links_a & links_b:
        if reference.feature_set(link) != candidate.feature_set(link):
            mismatches += 1
    return mismatches


def _cache_hit_rate(snapshot: dict) -> float | None:
    hits = obs.counter_total(snapshot, "similarity.cache.hits")
    misses = obs.counter_total(snapshot, "similarity.cache.misses")
    total = hits + misses
    if total <= 0:
        return None
    return hits / total


def _histogram_sum(snapshot: dict, name: str) -> float:
    """Total seconds recorded under one timer name (all label variants)."""
    return sum(h["sum"] for h in snapshot.get("histograms", ()) if h["name"] == name)


def _phase_breakdown(snapshot: dict) -> dict[str, float]:
    """Per-phase wall seconds of one build: score (blocking + scoring) and
    freeze (sorting the range indexes)."""
    return {
        "score": round(
            _histogram_sum(snapshot, "space.build.score")
            + _histogram_sum(snapshot, "space.build.block"),
            6,
        ),
        "freeze": round(_histogram_sum(snapshot, "space.build.freeze"), 6),
    }


def _timed_build(
    left: list[Entity],
    right: list[Entity],
    theta: float,
    fast: bool,
) -> tuple[FeatureSpace, float, dict]:
    """One cold build under an isolated obs registry."""
    clear_caches()
    with obs.use_registry(obs.Registry("bench")) as registry:
        start = time.perf_counter()
        space = FeatureSpace.build(left, right, theta, fast=fast)
        wall = time.perf_counter() - start
    return space, wall, registry.snapshot()


def _record(
    mode: str,
    dataset: str,
    left: list[Entity],
    right: list[Entity],
    space: FeatureSpace,
    wall: float,
    snapshot: dict,
) -> dict[str, Any]:
    pairs = space.total_pairs_considered
    return {
        "op": "space.build",
        "mode": mode,
        "dataset": dataset,
        "n_left": len(left),
        "n_right": len(right),
        "pairs_considered": pairs,
        "pairs_scanned": int(obs.counter_total(snapshot, "space.pairs.scanned")),
        "wall_seconds": round(wall, 6),
        "pairs_per_second": round(pairs / wall, 1) if wall > 0 else None,
        "cache_hit_rate": _cache_hit_rate(snapshot),
        "space_size": space.size,
        "phases": _phase_breakdown(snapshot),
    }


def run_bench(quick: bool = False, theta: float = DEFAULT_THETA) -> dict[str, Any]:
    """Run the construction benchmark and return the payload.

    Each bundle is built as naive and fast, both cold (cleared caches,
    isolated obs registries), and the fast build is parity-checked against
    the naive one. ``payload["speedup"]`` is naive/fast wall time on the
    largest bundle.
    """
    specs = BUNDLE_SPECS[:1] if quick else BUNDLE_SPECS
    records: list[dict[str, Any]] = []
    mismatches = 0
    speedup = None
    for spec in specs:
        pair = generate_pair(spec)
        left = list(entities_of(pair.left))
        right = list(entities_of(pair.right))
        naive, naive_wall, naive_snap = _timed_build(left, right, theta, False)
        fast, fast_wall, fast_snap = _timed_build(left, right, theta, True)
        records.append(_record("naive", spec.name, left, right, naive, naive_wall, naive_snap))
        records.append(_record("fast", spec.name, left, right, fast, fast_wall, fast_snap))
        mismatches += parity_mismatches(naive, fast)
        if fast_wall > 0:
            speedup = round(naive_wall / fast_wall, 2)  # last spec = largest
    return {
        "format": BENCH_FORMAT,
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "theta": theta,
        "quick": quick,
        "parity": {"checked": len(specs), "ok": mismatches == 0, "mismatches": mismatches},
        "speedup": speedup,
        "records": records,
    }


def write_payload(payload: dict[str, Any], path: str = DEFAULT_OUT) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(payload: dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_bench` payload."""
    lines = [
        f"feature-space construction bench (θ={payload['theta']}, "
        f"python {payload['python']})",
        f"{'dataset':<14} {'mode':<8} {'pairs':>10} "
        f"{'wall s':>8} {'pairs/s':>12} {'hit rate':>9} {'size':>7}",
    ]
    for record in payload["records"]:
        rate = record["cache_hit_rate"]
        lines.append(
            f"{record['dataset']:<14} {record['mode']:<8} "
            f"{record['pairs_considered']:>10} {record['wall_seconds']:>8.3f} "
            f"{record['pairs_per_second']:>12.0f} "
            f"{(f'{rate:.1%}' if rate is not None else '-'):>9} "
            f"{record['space_size']:>7}"
        )
    parity = payload["parity"]
    lines.append(
        f"parity: {'OK' if parity['ok'] else 'FAILED'} "
        f"({parity['checked']} builds checked, {parity['mismatches']} mismatches)"
    )
    if payload["speedup"] is not None:
        lines.append(f"speedup (largest bundle, fast vs naive): {payload['speedup']}x")
    return "\n".join(lines)
