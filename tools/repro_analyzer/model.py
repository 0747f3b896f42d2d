"""Core datatypes of the code analyzer: findings, module contexts, passes.

The analyzer is organised as a list of *passes* (see
:mod:`repro_analyzer.driver`). Each pass declares the diagnostic codes it
can emit and inspects one parsed module at a time through a
:class:`ModuleContext`, which carries the AST plus the derived structures
every pass needs (parent links, enclosing-function lookup, loop depth).

The module deliberately has **no dependency on the repro package**: the
repo-invariant check (``python -m repro_analyzer --rules repo``) must run
in CI jobs that never set ``PYTHONPATH=src``. Severity names mirror
``repro.diagnostics.SEVERITIES`` and the driver cross-registers the code
table when ``repro`` is importable (see :mod:`repro_analyzer.codes`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

#: Severity levels, most severe first (mirror of repro.diagnostics).
SEVERITIES = ("error", "warning", "info")

SEVERITY_RANK: dict[str, int] = {severity: rank for rank, severity in enumerate(SEVERITIES)}


def meets_threshold(severity: str, threshold: str) -> bool:
    """True when ``severity`` is at or above (more severe than) ``threshold``."""
    return SEVERITY_RANK[severity] <= SEVERITY_RANK[threshold]


@dataclass(frozen=True)
class CodeFinding:
    """One code-level finding with a source position.

    ``path`` is repo-relative with forward slashes; ``line``/``column`` are
    1-based (column 1 = first character), matching the convention of the
    SPARQL analyzer's diagnostics and of SARIF regions.
    """

    path: str
    line: int
    column: int
    code: str
    severity: str
    message: str
    hint: str | None = None

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.column}: {self.code} {self.severity}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.column, self.code, self.message)


def finding_at(node: ast.AST, path: str, code: str, severity: str, message: str,
               hint: str | None = None) -> CodeFinding:
    """A :class:`CodeFinding` anchored at ``node``'s source position."""
    return CodeFinding(
        path=path,
        line=getattr(node, "lineno", 0) or 0,
        column=(getattr(node, "col_offset", 0) or 0) + 1,
        code=code,
        severity=severity,
        message=message,
        hint=hint,
    )


@dataclass
class AnalyzerConfig:
    """Tunable contract tables. Defaults encode the repro architecture;
    tests override them to point the rules at fixture packages.

    All path entries are repo-relative posix suffixes — a module matches
    when its relative path ends with the entry (so ``rdf/graph.py``
    matches ``src/repro/rdf/graph.py``).
    """

    #: Path prefixes treated as *library* code (R001/R002/R005/R006 scope).
    library_roots: tuple[str, ...] = ("src/repro/",)

    #: Library modules allowed to print (the CLI surface) — basenames.
    print_allowed: tuple[str, ...] = ("cli.py", "__main__.py")

    #: Modules allowed to call ``TermDictionary.encode`` (the write path).
    #: Everything else interning terms through a graph's dictionary is
    #: dictionary growth on a read path (ALEX-C002).
    encode_boundary: tuple[str, ...] = (
        "rdf/dictionary.py",
        "rdf/graph.py",
        "rdf/dataset.py",
    )

    #: Modules allowed to decode IDs back to terms: the term-object
    #: boundary (projection / ordering / aggregation / expression
    #: evaluation) plus the dictionary itself (ALEX-C003).
    decode_boundary: tuple[str, ...] = (
        "rdf/dictionary.py",
        "rdf/graph.py",
        "rdf/dataset.py",
        "sparql/eval.py",
        "sparql/explain.py",
    )

    #: ID-keyed APIs that must never receive Term objects (ALEX-C001).
    id_api_names: tuple[str, ...] = ("triples_ids", "count_ids")

    #: Constructors whose results are RDF term objects.
    term_constructors: tuple[str, ...] = ("URIRef", "Literal", "BNode")

    #: Type annotations marking a parameter as term-valued.
    term_annotations: tuple[str, ...] = (
        "Term", "URIRef", "Literal", "BNode", "Subject", "Predicate", "Object",
    )

    #: Package prefix owning private tracer RNG state (ALEX-C011).
    rng_owner_roots: tuple[str, ...] = ("obs/",)

    #: Modules sanctioned to (re)construct engine RNGs outside ``__init__``
    #: (persistence restores the RNG state on load) (ALEX-C012).
    rng_sanctioned_modules: tuple[str, ...] = ("core/persistence.py",)

    #: Function names sanctioned to seed/construct RNGs (ALEX-C012).
    rng_sanctioned_functions: tuple[str, ...] = ("__init__",)

    #: Shared-state attribute -> owning module suffix (ALEX-C020a: any
    #: mutation of these attributes outside the owning module is flagged).
    shared_state_owners: dict[str, str] = field(default_factory=lambda: {
        "_spo": "rdf/graph.py",
        "_pos": "rdf/graph.py",
        "_osp": "rdf/graph.py",
        "_dict": "rdf/graph.py",
        "_size": "rdf/graph.py",
        "_version": "rdf/graph.py",
        "_terms": "rdf/dictionary.py",
        "_ids": "rdf/dictionary.py",
        "_links": "links.py",
        "_by_left": "links.py",
        "_by_right": "links.py",
        "_scores": "links.py",
        "_tally": "core/engine.py",
        "_plan_cache": "sparql/prepared.py",
    })

    #: Classes whose mutation surface is inventoried, with the writer
    #: methods *designated* to mutate instance state (ALEX-C020b: any other
    #: method of the class that mutates shared state is flagged).
    designated_writers: dict[str, tuple[str, ...]] = field(default_factory=lambda: {
        "Graph": ("__init__", "add", "add_all", "remove", "clear"),
        "TermDictionary": ("__init__", "encode"),
        # ordered() builds the sorted view lazily on its first call
        "LinkSet": ("__init__", "add", "remove", "update", "ordered"),
        "AlexEngine": (
            "__init__", "process_feedback", "end_episode", "preflight",
            "_credit", "_explore_from", "_remove_link", "_maybe_rollback",
            "reporter", "close",
        ),
    })

    #: Method names that mutate their receiver (set/dict/list mutators plus
    #: the domain writers of LinkSet / ledger / policy / value tables).
    mutator_methods: tuple[str, ...] = (
        "add", "add_all", "append", "clear", "discard", "extend", "insert",
        "pop", "popitem", "remove", "setdefault", "update",
        "record", "record_return", "record_positive", "record_negative",
        "record_feedback", "record_action", "improve", "forget_pair",
    )

    #: Hot-path functions (module suffix -> function names) for the C4 cost
    #: lints: decode/str materialization, obs events, per-row allocation.
    hot_paths: dict[str, tuple[str, ...]] = field(default_factory=lambda: {
        "sparql/eval.py": (
            "_eval_pattern_ids", "_eval_path_pattern", "_nested_loop_group",
            "_hash_join_group", "_eval_values", "match_pattern",
        ),
        "similarity/prepared.py": (
            "_string_score", "_pair_score", "_best_uncached",
            "_prepared_jaro_winkler",
        ),
    })

    #: Guard variable names whose ``is not None`` test exempts the guarded
    #: block from the C030/C031 cost lints (deliberate, off-by-default
    #: instrumentation such as tracers and EXPLAIN observers).
    cost_guard_names: tuple[str, ...] = ("tracer", "observer")

    #: Dotted call patterns the C042 check treats as blocking. Multi-part
    #: entries match by attribute-chain suffix (``time.sleep`` matches
    #: ``time.sleep(...)``); single-part entries match a bare name call
    #: only (``open`` matches ``open(...)``, never ``zf.open(...)``).
    blocking_calls: tuple[str, ...] = (
        "time.sleep",
        "open",
        "input",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
    )

    def with_changes(self, **kwargs) -> "AnalyzerConfig":
        return replace(self, **kwargs)

    def in_library(self, rel: str) -> bool:
        return any(rel.startswith(root) or root in ("", "./") for root in self.library_roots)

    def matches(self, rel: str, suffixes: Iterable[str]) -> bool:
        return any(rel.endswith(suffix) for suffix in suffixes)

    def hot_functions(self, rel: str) -> frozenset[str]:
        out: set[str] = set()
        for suffix, names in self.hot_paths.items():
            if rel.endswith(suffix):
                out.update(names)
        return frozenset(out)


class ModuleContext:
    """One parsed module plus the derived lookup structures passes share."""

    def __init__(self, path: str, rel: str, source: str, tree: ast.Module):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.source = source
        self.tree = tree
        self.basename = os.path.basename(path)
        self._parents: dict[ast.AST, ast.AST] | None = None

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child node -> parent node, computed lazily once per module."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Enclosing nodes of ``node``, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def loop_depth(self, node: ast.AST, within: ast.AST | None = None) -> int:
        """Number of for/while loops enclosing ``node`` (stopping at
        ``within`` when given — function bodies don't inherit the loops of
        their enclosing scope)."""
        depth = 0
        for ancestor in self.ancestors(node):
            if ancestor is within:
                break
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                break
            if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                depth += 1
        return depth


class AnalysisContext:
    """Cross-module state one analysis run threads through every pass."""

    def __init__(self, config: AnalyzerConfig, registered_codes: set[str]):
        self.config = config
        #: ALEX-* codes the R006 rule accepts (src CODES tables + this
        #: analyzer's own table).
        self.registered_codes = registered_codes
        #: Mutation-safety inventory accumulated by the C3 pass:
        #: class -> {"module": rel, "designated": [...], "writers": {method: [attrs]}}.
        self.writer_inventory: dict[str, dict] = {}
        #: Lock inventory accumulated by the C5 pass:
        #: "rel::scope" -> {"module": rel, "scope": name, "locks": {...}}.
        self.lock_inventory: dict[str, dict] = {}
        #: Static lock graph accumulated by the C5 pass and resolved in its
        #: ``finalize`` hook: one entry per cross-lock acquisition site.
        self.lock_order_edges: list = []
        #: Qualified lock id ("rel::scope.name") -> "Lock" | "RLock".
        self.lock_kinds: dict[str, str] = {}


class Pass:
    """Base class for analyzer passes (the rule plugin protocol).

    A pass declares ``name`` and its ``codes`` table (code ->
    (severity, summary)) and implements :meth:`run`, returning findings for
    one module. Docs for each code live in ``docs/diagnostics.md`` under
    the ``#alex-cNNN`` anchors (R-rules are documented in
    :mod:`repro_analyzer.rules_repo` and ``docs/diagnostics.md``).
    """

    name: str = "pass"
    codes: dict[str, tuple[str, str]] = {}

    def run(self, module: ModuleContext, ctx: AnalysisContext) -> Iterable[CodeFinding]:
        raise NotImplementedError

    def finalize(self, ctx: AnalysisContext) -> Iterable[CodeFinding]:
        """Cross-module findings emitted once after every module ran (the
        C041 lock-order cycle check is the only user today)."""
        return []

    def finding(self, module: ModuleContext, node: ast.AST, code: str, message: str,
                hint: str | None = None) -> CodeFinding:
        severity = self.codes[code][0]
        return finding_at(node, module.rel, code, severity, message, hint)
