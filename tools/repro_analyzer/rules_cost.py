"""C4 — hot-path cost lints (ALEX-C030/C031/C032).

In the spirit of runtime-approximation work for link discovery (see
PAPERS.md), the join and scan kernels are treated as cost-bearing inner
loops whose per-row work should be integer comparisons and dict probes —
not term materialisation, not metric emission, not container churn. The
pass only looks at the configured hot functions (``sparql/eval.py`` join
kernels and scans, ``similarity/prepared.py`` scoring kernels):

* ALEX-C030 (warning) — ``decode``/``str()`` materialisation inside a
  loop: each call turns an int back into a term object; on a 1M-row scan
  that is 1M allocations the projection boundary would have amortised;
* ALEX-C031 (warning) — obs metric/trace-event construction inside a
  loop: per-row ``obs.inc``/``tracer.event`` turns O(rows) instrumentation
  overhead on even when tracing is disabled. Blocks guarded by
  ``if tracer is not None:`` (or another configured guard) are exempt —
  that is the sanctioned pay-only-when-enabled pattern;
* ALEX-C032 (info) — container allocation (``dict()``/``list()``/
  ``tuple()``/``.copy()``) at loop depth >= 2: the per-output-row cost of
  a join kernel. Info severity: sometimes unavoidable (output rows must
  be materialised) but every instance deserves a look.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .dataflow import FunctionFacts, is_cost_guarded, receiver_tail
from .model import AnalysisContext, CodeFinding, ModuleContext, Pass

#: obs functions that emit a metric sample (C031).
OBS_EMIT_FUNCS = frozenset({"inc", "observe", "set_gauge"})

#: Receivers whose ``.event(...)`` is a trace emission (C031).
TRACE_RECEIVERS = frozenset({"trace", "tracer"})

#: Builtin container constructors counted as per-row allocation (C032).
CONTAINER_CONSTRUCTORS = frozenset({"dict", "list", "set", "tuple", "frozenset"})


class HotPathCostPass(Pass):
    name = "hot-path-cost"
    codes = {
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
    }

    def run(self, module: ModuleContext, ctx: AnalysisContext) -> Iterable[CodeFinding]:
        config = ctx.config
        hot = config.hot_functions(module.rel)
        if not hot:
            return []
        findings: list[CodeFinding] = []
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name not in hot:
                continue
            facts = FunctionFacts(func, config.term_constructors, config.term_annotations)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                depth = module.loop_depth(node, within=func)
                if depth < 1:
                    continue
                guarded = is_cost_guarded(module, node, config.cost_guard_names)

                reason = self._materialisation(node, facts)
                if reason is not None and not guarded:
                    findings.append(self.finding(
                        module, node, "ALEX-C030",
                        f"{reason} inside a loop of hot function {func.name}() "
                        "materialises per row",
                        hint="stay in ID space inside the kernel; decode once "
                             "at the projection/ordering boundary",
                    ))

                emission = self._obs_emission(node)
                if emission is not None and not guarded:
                    findings.append(self.finding(
                        module, node, "ALEX-C031",
                        f"{emission} inside a loop of hot function {func.name}() "
                        "pays instrumentation cost per row",
                        hint="accumulate locally and emit once after the loop, "
                             "or guard with `if tracer is not None:`",
                    ))

                if depth >= 2:
                    allocation = self._allocation(node)
                    if allocation is not None:
                        findings.append(self.finding(
                            module, node, "ALEX-C032",
                            f"{allocation} at loop depth {depth} in hot function "
                            f"{func.name}() allocates per output row",
                            hint="reuse buffers or restructure the kernel if the "
                                 "allocation is avoidable; baseline it with a "
                                 "justification if the row must be materialised",
                        ))
        return findings

    @staticmethod
    def _materialisation(node: ast.Call, facts: FunctionFacts) -> str | None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "decode":
            receiver = receiver_tail(node.func) or "<expr>"
            return f"{receiver}.decode() term materialisation"
        if isinstance(node.func, ast.Name):
            if node.func.id in facts.decode_aliases:
                return f"{node.func.id}() (aliases dictionary.decode)"
            if node.func.id == "str" and node.args:
                return "str() materialisation"
        return None

    @staticmethod
    def _obs_emission(node: ast.Call) -> str | None:
        if not isinstance(node.func, ast.Attribute):
            return None
        receiver = receiver_tail(node.func)
        if receiver == "obs" and node.func.attr in OBS_EMIT_FUNCS:
            return f"obs.{node.func.attr}()"
        if receiver in TRACE_RECEIVERS and node.func.attr == "event":
            return f"{receiver}.event()"
        return None

    @staticmethod
    def _allocation(node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name) and node.func.id in CONTAINER_CONSTRUCTORS:
            return f"{node.func.id}() allocation"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "copy":
            return f"{receiver_tail(node.func) or '<expr>'}.copy() allocation"
        return None
