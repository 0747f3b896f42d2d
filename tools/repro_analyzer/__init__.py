"""repro_analyzer — AST/dataflow contract analyzer for the repro codebase.

The third static-analysis tier next to the query analyzer
(:mod:`repro.sparql.analysis`) and the data analyzer
(:mod:`repro.rdf.validate`): multi-pass analysis of the engine's *code*,
checking the architectural contracts the first six PRs introduced but
could not enforce —

* **C1 encoding boundary** (ALEX-C001..C003): terms stay out of ID-keyed
  APIs; the dictionary grows only on write paths; decode happens at
  sanctioned boundaries.
* **C2 RNG discipline** (ALEX-C010..C012): no global ``random.*`` in
  library code; the tracer RNG never crosses the obs/engine seam; engine
  RNGs seed exactly once.
* **C3 mutation safety** (ALEX-C020..C021): shared graph/engine state is
  written only by designated writers (inventoried in ``writers.json``);
  no iteration-while-mutating of the SPO/POS/OSP indexes.
* **C4 hot-path cost** (ALEX-C030..C032): no per-row decode/str/obs-event
  work inside the join and scoring kernels.
* **C5 concurrency contracts** (ALEX-C040..C044, C050): lock-guarded
  state is accessed under its lock (inventoried in ``locks.json``),
  lock-acquisition order is globally consistent, nothing blocks while
  holding a lock or inside ``async def``, manual ``acquire()`` pairs
  with a try/finally ``release()``, and guarded mutable state never
  escapes its lock.

The historical repo invariants R001-R007 are migrated as the "repo" pass
family; ``python -m repro_analyzer --rules repo`` runs exactly that family.

Usage: ``python -m repro_analyzer [paths...]`` standalone, or
``repro lint-code`` through the package CLI. Findings support text/JSON/
SARIF output and a committed baseline (``baseline.json``) so pre-existing
accepted findings don't block CI while regressions fail it.
"""

from .baseline import (
    BaselineEntry,
    BaselineError,
    apply_baseline,
    generate_baseline,
    load_baseline,
    parse_baseline,
    validate_codes,
)
from .codes import ANALYZER_NAME, CODES, register
from .driver import (
    DEFAULT_FAMILIES,
    PASS_FAMILIES,
    AnalysisResult,
    all_rule_codes,
    analyze_paths,
    build_passes,
    collect_registered_codes,
    iter_python_files,
)
from .model import (
    SEVERITIES,
    SEVERITY_RANK,
    AnalysisContext,
    AnalyzerConfig,
    CodeFinding,
    ModuleContext,
    Pass,
    meets_threshold,
)
from .output import render_json, render_sarif, render_text
from .rules_concurrency import ConcurrencyContractsPass, LockOrderEdge

#: Best-effort registration of the ALEX-C table into repro.diagnostics
#: (no-op when the repro package is not importable — standalone CI mode).
REGISTERED_WITH_REPRO = register()

__version__ = "1.0.0"

__all__ = [
    "ANALYZER_NAME",
    "AnalysisContext",
    "AnalysisResult",
    "AnalyzerConfig",
    "BaselineEntry",
    "BaselineError",
    "CODES",
    "CodeFinding",
    "ConcurrencyContractsPass",
    "DEFAULT_FAMILIES",
    "LockOrderEdge",
    "ModuleContext",
    "PASS_FAMILIES",
    "Pass",
    "REGISTERED_WITH_REPRO",
    "SEVERITIES",
    "SEVERITY_RANK",
    "all_rule_codes",
    "analyze_paths",
    "apply_baseline",
    "build_passes",
    "collect_registered_codes",
    "generate_baseline",
    "iter_python_files",
    "load_baseline",
    "meets_threshold",
    "parse_baseline",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "validate_codes",
]
