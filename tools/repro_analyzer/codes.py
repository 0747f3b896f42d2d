"""The ALEX-C* diagnostic family: code-level contract checks.

Third diagnostic tier alongside the query analyzer (``ALEX-E/W/I``,
:mod:`repro.sparql.analysis`) and the data analyzer (``ALEX-D*``,
:mod:`repro.rdf.validate`). Codes are append-only and stable; each maps
to ``(severity, summary)`` and is documented under the matching anchor in
``docs/diagnostics.md``.

Registration into ``repro.diagnostics`` is best-effort: the analyzer must
keep working when invoked standalone (CI runs ``python -m repro_analyzer
--rules repo`` with only ``PYTHONPATH=tools``), so the import of ``repro``
is guarded.

The migrated repo-invariant rules keep their historical ``R00x`` names;
they are deliberately *not* part of the ALEX-C namespace (they are repo
hygiene, not engine contracts) and are not registered in
``repro.diagnostics``.
"""

from __future__ import annotations

#: ALEX-C* code -> (severity, summary). Append-only.
CODES: dict[str, tuple[str, str]] = {
    # -- C1: encoding-boundary contract ---------------------------------
    "ALEX-C001": (
        "error",
        "term object passed to an ID-keyed API (triples_ids/count_ids take ints)",
    ),
    "ALEX-C002": (
        "error",
        "dictionary.encode() outside the encoding boundary grows the dictionary on a read path",
    ),
    "ALEX-C003": (
        "warning",
        "dictionary.decode() outside the decoding boundary materialises terms mid-pipeline",
    ),
    # -- C2: RNG discipline ---------------------------------------------
    "ALEX-C010": (
        "error",
        "module-level random.* call in library code breaks seeded-run determinism",
    ),
    "ALEX-C011": (
        "error",
        "tracer RNG (_rng) referenced outside the obs package crosses the obs/engine seam",
    ),
    "ALEX-C012": (
        "error",
        "engine RNG (re)seeded outside a sanctioned constructor",
    ),
    # -- C3: mutation-safety inventory ----------------------------------
    "ALEX-C020": (
        "error",
        "shared engine/graph state mutated by a non-designated writer",
    ),
    "ALEX-C021": (
        "error",
        "iteration over a graph/link index while mutating it in the loop body",
    ),
    # -- C4: hot-path cost lints ----------------------------------------
    "ALEX-C030": (
        "warning",
        "term decode/str() materialisation inside a hot join/scan loop",
    ),
    "ALEX-C031": (
        "warning",
        "obs metric/trace event constructed inside a hot join/scan loop",
    ),
    "ALEX-C032": (
        "info",
        "per-row container allocation at loop depth >= 2 in a hot function",
    ),
    # -- C5: concurrency contracts --------------------------------------
    "ALEX-C040": (
        "error",
        "lock-guarded attribute read or written outside its lock",
    ),
    "ALEX-C041": (
        "error",
        "inconsistent lock-acquisition order (potential deadlock cycle)",
    ),
    "ALEX-C042": (
        "warning",
        "blocking call while holding a lock or inside an async function",
    ),
    "ALEX-C043": (
        "error",
        "manual lock acquire() without a try/finally release",
    ),
    "ALEX-C044": (
        "warning",
        "locked method returns a reference to guarded mutable state",
    ),
    "ALEX-C050": (
        "error",
        "designated writer mutates guarded state without holding the owning lock",
    ),
}

ANALYZER_NAME = "repro_analyzer"


def register() -> bool:
    """Register the ALEX-C table in ``repro.diagnostics`` when available.

    Returns True when registration happened (``repro`` importable), False
    in standalone mode. Idempotent either way.
    """
    try:
        from repro.diagnostics import register_codes
    except ImportError:
        return False
    register_codes(CODES, ANALYZER_NAME)
    return True
