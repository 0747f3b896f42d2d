"""Repo-invariant rules R001-R007, migrated from the former regex-grade
repo linter.

Semantics are preserved from the original linter; the findings now carry
column positions and flow through the same baseline / output machinery as
the ALEX-C contract passes. R-rules are repo hygiene, not engine
contracts, so they stay outside the ALEX-C namespace and are not
registered in ``repro.diagnostics``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from .model import AnalysisContext, CodeFinding, ModuleContext, Pass

#: Diagnostic code shape accepted by R006: ALEX-<letter><3 digits>.
ALEX_CODE_RE = re.compile(r"ALEX-[A-Z]\d{3}")

#: Call names whose result is a fresh mutable container (R005).
MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "Counter", "OrderedDict"}

#: R007: dotted lowercase name, 2-4 segments (``alex.links.discovered``).
DOTTED_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){1,3}$")

#: obs functions taking a metric or span name as first argument (R007).
OBS_METRIC_FUNCS = {
    "inc", "observe", "set_gauge", "counter", "gauge", "histogram", "timer", "span",
}

FORBIDDEN_OBS_CALLS = {"set_registry", "reset"}


def _is_obs_attr(node: ast.AST, name: str) -> bool:
    """Matches ``obs.<name>`` / ``repro.obs.<name>`` attribute access."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, (ast.Name, ast.Attribute))
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "obs")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "obs")
        )
    )


def _receiver_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            return node.value.id
        if isinstance(node.value, ast.Attribute):
            return node.value.attr
    return None


def _observability_name_call(node: ast.Call) -> tuple[str, ast.AST] | None:
    """R007: recognise calls declaring a metric/span/event name literal."""
    if not isinstance(node.func, ast.Attribute) or not node.args:
        return None
    first = node.args[0]
    if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
        return None
    attr = node.func.attr
    receiver = _receiver_name(node.func)
    if receiver == "obs" and attr in OBS_METRIC_FUNCS:
        return first.value, first
    if attr == "event" and receiver in ("trace", "tracer"):
        return first.value, first
    return None


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_FACTORIES
    return False


def _imported_and_defined_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


class RepoInvariantsPass(Pass):
    """R001-R007: project hygiene invariants (historical linter rules)."""

    name = "repo-invariants"
    codes = {
        "R000": ("error", "file does not parse as Python"),
        "R001": ("error", "print() in library code outside the CLI modules"),
        "R002": ("error", "direct mutation of the global obs registry outside repro.obs"),
        "R003": ("error", "__all__ exports a name the module neither defines nor imports"),
        "R004": ("error", "bare 'except:' swallows KeyboardInterrupt/SystemExit"),
        "R005": ("error", "mutable default argument shared across calls"),
        "R006": ("error", "ALEX-* code string not registered in any CODES table"),
        "R007": ("error", "observability name breaks the dotted naming convention"),
    }

    def run(self, module: ModuleContext, ctx: AnalysisContext) -> Iterable[CodeFinding]:
        config = ctx.config
        rel = module.rel
        in_library = config.in_library(rel)
        in_obs = any(rel.startswith(root + obs_dir)
                     for root in config.library_roots
                     for obs_dir in ("obs/",)) or "/obs/" in rel
        findings: list[CodeFinding] = []

        for node in ast.walk(module.tree):
            # R001: print() in library code
            if (
                in_library
                and module.basename not in config.print_allowed
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                findings.append(self.finding(
                    module, node, "R001",
                    "print() in library code; return values, raise, or use repro.obs",
                ))
            # R002: poking the global obs registry
            if in_library and not in_obs:
                if isinstance(node, (ast.Attribute, ast.Name)):
                    name = node.attr if isinstance(node, ast.Attribute) else node.id
                    if name == "_default_registry":
                        findings.append(self.finding(
                            module, node, "R002",
                            "direct access to obs._default_registry; use "
                            "obs.get_registry()/obs.use_registry()",
                        ))
                if isinstance(node, ast.Call):
                    for forbidden in FORBIDDEN_OBS_CALLS:
                        if _is_obs_attr(node.func, forbidden):
                            findings.append(self.finding(
                                module, node, "R002",
                                f"obs.{forbidden}() mutates the global registry; "
                                "use obs.use_registry() scoping",
                            ))
            # R004: bare except (all scanned roots, not just library code)
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                findings.append(self.finding(
                    module, node, "R004",
                    "bare 'except:'; catch a specific exception (or Exception)",
                ))
            # R005: mutable default arguments in library code
            if in_library and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                arguments = node.args
                for default in list(arguments.defaults) + [
                    d for d in arguments.kw_defaults if d is not None
                ]:
                    if _is_mutable_default(default):
                        findings.append(self.finding(
                            module, default, "R005",
                            "mutable default argument; the instance is shared "
                            "across calls — default to None and create inside",
                        ))
            # R007: observability names follow the dotted naming convention
            if isinstance(node, ast.Call):
                name_call = _observability_name_call(node)
                if name_call is not None:
                    name, anchor = name_call
                    if not DOTTED_NAME_RE.match(name):
                        findings.append(self.finding(
                            module, anchor, "R007",
                            f"observability name {name!r} must be dotted lowercase "
                            "subsystem.noun.verb (2-4 segments)",
                        ))
            # R006: only registered ALEX-* diagnostic codes in library code
            if (
                in_library
                and ctx.registered_codes
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            ):
                for code in ALEX_CODE_RE.findall(node.value):
                    if code not in ctx.registered_codes:
                        findings.append(self.finding(
                            module, node, "R006",
                            f"diagnostic code {code} is not registered in any "
                            "module-level CODES table",
                        ))

        findings.extend(self._check_all_exports(module))
        return findings

    def _check_all_exports(self, module: ModuleContext) -> list[CodeFinding]:
        """R003: ``__all__`` entries must name something that exists."""
        exported: list[tuple[str, ast.AST]] = []
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(element.value, str):
                            exported.append((element.value, element))
        if not exported:
            return []
        available = _imported_and_defined_names(module.tree) | {"__version__"}
        return [
            self.finding(
                module, anchor, "R003",
                f"__all__ exports {name!r} but the module neither defines nor imports it",
            )
            for name, anchor in exported
            if name not in available
        ]
