"""Multi-pass driver: file discovery, parsing, pass scheduling, results.

One :func:`analyze_paths` call parses each module once, hands the shared
:class:`ModuleContext` to every enabled pass, and returns the merged,
position-sorted findings plus the cross-module artifacts (the writer
inventory) accumulated along the way.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from . import codes as codes_module
from .model import (
    AnalysisContext,
    AnalyzerConfig,
    CodeFinding,
    ModuleContext,
    Pass,
)
from .rules_concurrency import ConcurrencyContractsPass
from .rules_cost import HotPathCostPass
from .rules_encoding import EncodingBoundaryPass
from .rules_mutation import MutationSafetyPass
from .rules_repo import RepoInvariantsPass
from .rules_rng import RngDisciplinePass

#: Rule families -> pass factory. CI's repo-invariants step runs only
#: "repo"; `repro lint-code` runs everything by default.
PASS_FAMILIES: dict[str, type[Pass]] = {
    "repo": RepoInvariantsPass,
    "encoding": EncodingBoundaryPass,
    "rng": RngDisciplinePass,
    "mutation": MutationSafetyPass,
    "cost": HotPathCostPass,
    "concurrency": ConcurrencyContractsPass,
}

DEFAULT_FAMILIES = ("repo", "encoding", "rng", "mutation", "cost", "concurrency")


def build_passes(families: tuple[str, ...] = DEFAULT_FAMILIES) -> list[Pass]:
    unknown = [f for f in families if f not in PASS_FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown rule families {unknown}; known: {sorted(PASS_FAMILIES)}"
        )
    return [PASS_FAMILIES[family]() for family in families]


def all_rule_codes(families: tuple[str, ...] = DEFAULT_FAMILIES) -> dict[str, tuple[str, str]]:
    """code -> (severity, summary) across the enabled families."""
    table: dict[str, tuple[str, str]] = {}
    for family in families:
        table.update(PASS_FAMILIES[family].codes)
    return table


def collect_registered_codes(root: str, config: AnalyzerConfig | None = None) -> set[str]:
    """String keys of every module-level ``CODES = {...}`` dict under the
    library roots, plus this analyzer's own ALEX-C table.

    This is the static mirror of ``repro.diagnostics``: each analyzer
    registers a literal CODES table, so parsing those tables recovers the
    registry without importing the package (CI runs the wrapper without
    ``PYTHONPATH=src``).
    """
    config = config or AnalyzerConfig()
    codes: set[str] = set(codes_module.CODES)
    for library_root in config.library_roots:
        base = os.path.join(root, *library_root.strip("/").split("/"))
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, "r", encoding="utf-8") as handle:
                    try:
                        tree = ast.parse(handle.read())
                    except SyntaxError:
                        continue  # reported as R000 during analysis
                for node in tree.body:
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    if not any(
                        isinstance(t, ast.Name) and t.id == "CODES" for t in targets
                    ):
                        continue
                    if isinstance(node.value, ast.Dict):
                        for key in node.value.keys:
                            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                                codes.add(key.value)
    return codes


def iter_python_files(paths: list[str], root: str):
    """Yield ``(abs_path, rel_path)`` for every .py file under ``paths``
    (files or directories, resolved against ``root`` when relative)."""
    seen: set[str] = set()
    for raw in paths:
        base = raw if os.path.isabs(raw) else os.path.join(root, raw)
        base = os.path.normpath(base)
        if os.path.isfile(base):
            candidates = [base]
        elif os.path.isdir(base):
            candidates = []
            for dirpath, dirnames, filenames in os.walk(base):
                # Sorted traversal keeps module order — and with it artifact
                # and finding order — byte-stable across filesystems.
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                candidates.extend(
                    os.path.join(dirpath, f) for f in sorted(filenames)
                    if f.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for path in candidates:
            if not path.endswith(".py") or path in seen:
                continue
            seen.add(path)
            yield path, os.path.relpath(path, root)


@dataclass
class AnalysisResult:
    findings: list[CodeFinding] = field(default_factory=list)
    writer_inventory: dict[str, dict] = field(default_factory=dict)
    lock_inventory: dict[str, dict] = field(default_factory=dict)
    modules_scanned: int = 0

    @property
    def rule_codes(self) -> set[str]:
        return {finding.code for finding in self.findings}


def analyze_paths(
    paths: list[str],
    root: str,
    config: AnalyzerConfig | None = None,
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    registered_codes: set[str] | None = None,
) -> AnalysisResult:
    """Run the enabled pass families over every Python file under ``paths``."""
    config = config or AnalyzerConfig()
    if registered_codes is None:
        registered_codes = collect_registered_codes(root, config)
    passes = build_passes(families)
    ctx = AnalysisContext(config, registered_codes)
    result = AnalysisResult()

    for path, rel in iter_python_files(paths, root):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            result.findings.append(CodeFinding(
                path=rel.replace(os.sep, "/"),
                line=error.lineno or 0,
                column=(error.offset or 0) or 1,
                code="R000",
                severity="error",
                message=f"syntax error: {error.msg}",
            ))
            continue
        module = ModuleContext(path, rel, source, tree)
        result.modules_scanned += 1
        for pass_ in passes:
            result.findings.extend(pass_.run(module, ctx))

    for pass_ in passes:
        result.findings.extend(pass_.finalize(ctx))

    result.findings.sort(key=CodeFinding.sort_key)
    result.writer_inventory = {
        name: ctx.writer_inventory[name] for name in sorted(ctx.writer_inventory)
    }
    result.lock_inventory = {
        key: ctx.lock_inventory[key] for key in sorted(ctx.lock_inventory)
    }
    return result
