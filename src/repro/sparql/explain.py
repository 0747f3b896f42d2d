"""SPARQL EXPLAIN / EXPLAIN ANALYZE: plan trees with per-operator profiles.

``explain(graph, query)`` renders the *optimized* algebra plan — solution
modifiers on top, group patterns below, each BGP in the join order the
optimizer (:mod:`repro.sparql.optimizer`) would actually execute, with that
optimizer's cardinality estimate attached to every triple pattern. The plan
never executes the query.

``explain(graph, query, analyze=True)`` additionally *runs* the query under
an :class:`~repro.sparql.eval.EvalObserver` that meters every operator —
rows in, rows out, wall seconds, join strategy — and, when a tracer is
installed (:mod:`repro.obs.trace`), attaches one ``sparql.operator.eval``
trace event per operator inside a ``sparql.query.explain`` span, so query
profiles land in the same audit trail as engine decisions.

Timing semantics: since v1.6 the evaluator materializes each pattern
stage (adaptively as a hash join or an index nested-loop batch), so a
pattern's ``time`` is *exclusive* — the wall time of that stage alone —
and its ``strategy`` annotation reports the join algorithm the executor
actually chose (``hash-join`` / ``index-nested-loop`` / ``path-scan``),
which on large inputs can differ from the static plan's guess.

Surfaced as ``repro explain`` (text/JSON, ``--analyze``, ``--trace-out``)
and as ``sparql.query(..., profile=True)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro import obs
from repro.obs import trace
from repro.rdf.graph import Graph
from repro.sparql.ast import (
    AskQuery,
    BGP,
    Bind,
    BooleanOp,
    Comparison,
    ConstructQuery,
    ExistsExpr,
    Expr,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    Not,
    OptionalPattern,
    SelectQuery,
    TermExpr,
    TriplePattern,
    UnionPattern,
    ValuesClause,
    Var,
    VarExpr,
)
from repro.sparql.eval import (
    EvalObserver,
    _execute_ask,
    _execute_construct,
    _execute_select,
)
from repro.sparql.optimizer import estimate_cardinality, reorder_bgp
from repro.sparql.parser import parse_query
from repro.sparql.paths import PathExpr

#: Versioned schema tag on :meth:`QueryPlan.to_dict` payloads.
PLAN_SCHEMA = "repro-plan/1"


def render_expr(expr: Expr) -> str:
    """Compact, SPARQL-ish rendering of a FILTER/ORDER expression."""
    if isinstance(expr, TermExpr):
        return expr.term.n3()
    if isinstance(expr, VarExpr):
        return str(expr.var)
    if isinstance(expr, Not):
        return f"!({render_expr(expr.operand)})"
    if isinstance(expr, (Comparison, BooleanOp)):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, FunctionCall):
        return f"{expr.name}({', '.join(render_expr(a) for a in expr.args)})"
    if isinstance(expr, ExistsExpr):
        return ("NOT EXISTS" if expr.negated else "EXISTS") + " {...}"
    return type(expr).__name__


@dataclass
class PlanNode:
    """One operator in the plan tree (and, after ANALYZE, its profile)."""

    op: str
    detail: str = ""
    estimate: float | None = None
    strategy: str | None = None
    children: list["PlanNode"] = field(default_factory=list)
    # -- filled in by EXPLAIN ANALYZE ---------------------------------- #
    executed: bool = False
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0

    def label(self) -> str:
        parts = [self.op]
        if self.detail:
            parts.append(self.detail)
        annotations = []
        if self.strategy:
            annotations.append(f"strategy={self.strategy}")
        if self.estimate is not None:
            annotations.append(f"est={self.estimate:g}")
        if self.executed:
            annotations.append(
                f"rows={self.rows_in}->{self.rows_out} time={self.seconds * 1000:.3f}ms"
            )
        text = " ".join(parts)
        if annotations:
            text += "  [" + " ".join(annotations) + "]"
        return text

    def to_dict(self) -> dict:
        node: dict = {"op": self.op}
        if self.detail:
            node["detail"] = self.detail
        if self.estimate is not None:
            node["estimate"] = self.estimate
        if self.strategy:
            node["strategy"] = self.strategy
        if self.executed:
            node["rows_in"] = self.rows_in
            node["rows_out"] = self.rows_out
            node["seconds"] = round(self.seconds, 9)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class QueryPlan:
    """The product of :func:`explain`: a plan tree plus run metadata."""

    def __init__(self, root: PlanNode, analyzed: bool = False):
        self.root = root
        self.analyzed = analyzed
        self.result = None  # the query result when analyzed
        self.seconds: float | None = None  # total execution time when analyzed
        self.trace_id: str | None = None

    def render(self) -> str:
        """The plan as an indented text tree (the body of ``repro explain``)."""
        lines = []
        header = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines.append(header)

        def emit(node: PlanNode, prefix: str, is_last: bool, is_root: bool) -> None:
            if is_root:
                lines.append(node.label())
                child_prefix = ""
            else:
                connector = "`- " if is_last else "|- "
                lines.append(prefix + connector + node.label())
                child_prefix = prefix + ("   " if is_last else "|  ")
            for index, child in enumerate(node.children):
                emit(child, child_prefix, index == len(node.children) - 1, False)

        emit(self.root, "", True, True)
        if self.analyzed and self.seconds is not None:
            lines.append(f"total: {self.seconds * 1000:.3f} ms")
            if self.trace_id is not None:
                lines.append(f"trace: {self.trace_id}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload: dict = {
            "schema": PLAN_SCHEMA,
            "analyzed": self.analyzed,
            "root": self.root.to_dict(),
        }
        if self.seconds is not None:
            payload["seconds"] = round(self.seconds, 9)
        if self.trace_id is not None:
            payload["trace"] = self.trace_id
        return payload

    def operators(self) -> list[PlanNode]:
        return list(self.root.walk())

    def __repr__(self):
        kind = "analyzed" if self.analyzed else "static"
        return f"<QueryPlan {kind}: {len(self.operators())} operators>"


# --------------------------------------------------------------------- #
# Plan construction (shared by EXPLAIN and EXPLAIN ANALYZE)
# --------------------------------------------------------------------- #


class _PlanBuilder:
    """Builds the plan tree, registering operator nodes for the meter.

    BGPs are reordered here with the *same* deterministic greedy procedure
    the evaluator applies (:func:`reorder_bgp` is a pure function of the
    pattern set and graph statistics, so building and evaluating agree on
    the join order and on pattern object identity).
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        #: id(ast object) -> PlanNode, for the meter's stage lookups.
        self.nodes: dict[int, PlanNode] = {}
        #: top-level modifier op -> PlanNode ("project", "distinct", ...).
        self.modifiers: dict[str, PlanNode] = {}

    def build(self, query) -> PlanNode:
        if isinstance(query, SelectQuery):
            return self._build_select(query)
        if isinstance(query, AskQuery):
            node = PlanNode("ask", children=[self._group(query.where, set())])
            self.modifiers["ask"] = node
            return node
        if isinstance(query, ConstructQuery):
            node = PlanNode(
                "construct",
                detail=f"{len(query.template)} template triple(s)",
                children=[self._group(query.where, set())],
            )
            self.modifiers["construct"] = node
            return node
        raise TypeError(f"cannot explain {type(query).__name__}")

    def _build_select(self, query: SelectQuery) -> PlanNode:
        node = self._group(query.where, set())
        if query.is_aggregated:
            keys = " ".join(str(v) for v in query.group_by) or "(all)"
            aggregates = ", ".join(
                f"{a.function}({'DISTINCT ' if a.distinct else ''}"
                f"{a.var if a.var is not None else '*'}) AS {a.alias}"
                for a in query.aggregates
            )
            node = PlanNode(
                "aggregate", detail=f"group by {keys}: {aggregates}", children=[node]
            )
            self.modifiers["aggregate"] = node
        else:
            names = " ".join(str(v) for v in query.projected()) or "*"
            node = PlanNode("project", detail=names, children=[node])
            self.modifiers["project"] = node
        if query.distinct:
            node = PlanNode("distinct", children=[node])
            self.modifiers["distinct"] = node
        if query.order_by:
            detail = ", ".join(
                ("DESC " if condition.descending else "") + render_expr(condition.expression)
                for condition in query.order_by
            )
            node = PlanNode("order", detail=detail, children=[node])
            self.modifiers["order"] = node
        if query.offset or query.limit is not None:
            parts = []
            if query.limit is not None:
                parts.append(f"limit {query.limit}")
            if query.offset:
                parts.append(f"offset {query.offset}")
            node = PlanNode("slice", detail=" ".join(parts), children=[node])
            self.modifiers["slice"] = node
        return node

    def _group(self, group: GroupGraphPattern, bound: set[Var]) -> PlanNode:
        node = PlanNode("group")
        for child in group.children:
            if isinstance(child, BGP):
                node.children.append(self._bgp(child, bound))
            elif isinstance(child, Filter):
                filter_node = PlanNode("filter", detail=render_expr(child.expression))
                self.nodes[id(child.expression)] = filter_node
                node.children.append(filter_node)
            elif isinstance(child, GroupGraphPattern):
                node.children.append(self._group(child, bound))
            elif isinstance(child, OptionalPattern):
                optional = PlanNode(
                    "optional", children=[self._group(child.pattern, set(bound))]
                )
                bound |= child.pattern.variables()
                node.children.append(optional)
            elif isinstance(child, UnionPattern):
                union = PlanNode(
                    "union",
                    children=[
                        self._group(alternative, set(bound))
                        for alternative in child.alternatives
                    ],
                )
                for alternative in child.alternatives:
                    bound |= alternative.variables()
                node.children.append(union)
            elif isinstance(child, Bind):
                node.children.append(
                    PlanNode("bind", detail=f"{render_expr(child.expression)} AS {child.var}")
                )
                bound.add(child.var)
            elif isinstance(child, ValuesClause):
                names = " ".join(str(v) for v in child.variables)
                node.children.append(
                    PlanNode("values", detail=f"({names}) x {len(child.rows)} row(s)")
                )
                bound |= set(child.variables)
            else:
                node.children.append(PlanNode(type(child).__name__.lower()))
        return node

    def _bgp(self, bgp: BGP, bound: set[Var]) -> PlanNode:
        # seed the join-order search with the variables the enclosing group
        # has already bound, matching what the evaluator does at run time
        ordered = reorder_bgp(self.graph, bgp, bound) if len(bgp.patterns) > 1 else bgp
        reordered = ordered.patterns != bgp.patterns
        node = PlanNode(
            "bgp",
            detail=f"{len(ordered.patterns)} pattern(s)"
            + (" (reordered)" if reordered else ""),
        )
        for pattern in ordered.patterns:
            strategy = (
                "path-scan" if isinstance(pattern.predicate, PathExpr)
                else "index-nested-loop"
            )
            pattern_node = PlanNode(
                "pattern",
                detail=str(pattern),
                estimate=estimate_cardinality(self.graph, pattern, bound),
                strategy=strategy,
            )
            self.nodes[id(pattern)] = pattern_node
            node.children.append(pattern_node)
            bound |= pattern.variables()
        return node


# --------------------------------------------------------------------- #
# The meter: an EvalObserver accumulating into plan nodes
# --------------------------------------------------------------------- #


class _Meter(EvalObserver):
    """Routes evaluator profile callbacks onto the prepared plan nodes.

    UNION alternatives share their pattern objects across branches and a
    group may execute more than once, so stats *accumulate* across calls —
    the node reports the operator's total work, as EXPLAIN ANALYZE loops
    do. A pattern node's ``strategy`` is overwritten with the strategy the
    executor actually picked.
    """

    def __init__(self, builder: _PlanBuilder):
        self._builder = builder

    def _node(self, key: int, op: str, detail: str) -> PlanNode:
        node = self._builder.nodes.get(key)
        if node is None:
            # an operator the builder did not anticipate (defensive): attach
            # a floating node so its numbers are not lost
            node = PlanNode(op, detail=detail)
            self._builder.nodes[key] = node
            self._builder.modifiers.setdefault("group", PlanNode("group")).children.append(
                node
            )
        return node

    def pattern_profile(
        self,
        pattern: TriplePattern,
        strategy: str,
        rows_in: int,
        rows_out: int,
        seconds: float,
    ) -> None:
        node = self._node(id(pattern), "pattern", str(pattern))
        node.executed = True
        node.strategy = strategy
        node.rows_in += rows_in
        node.rows_out += rows_out
        node.seconds += seconds

    def filter_profile(
        self, expression: Expr, rows_in: int, rows_out: int, seconds: float
    ) -> None:
        node = self._node(id(expression), "filter", render_expr(expression))
        node.executed = True
        node.rows_in += rows_in
        node.rows_out += rows_out
        node.seconds += seconds

    def modifier(self, op: str, rows_in: int, rows_out: int, seconds: float) -> None:
        node = self._builder.modifiers.get(op)
        if node is None:
            return
        node.executed = True
        node.rows_in += rows_in
        node.rows_out += rows_out
        node.seconds += seconds


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def explain(graph: Graph, query, analyze: bool = False) -> QueryPlan:
    """Build the optimized plan for ``query`` (text or parsed) over ``graph``.

    ``analyze=True`` executes the query, filling per-operator ``rows_in`` /
    ``rows_out`` / ``seconds`` / ``strategy`` and emitting one
    ``sparql.operator.eval`` trace event per executed operator (plus the
    enclosing ``sparql.query.explain`` span) when a tracer is active. The
    executed result is exposed as ``plan.result``.
    """
    parsed = parse_query(query) if isinstance(query, str) else query
    builder = _PlanBuilder(graph)
    root = builder.build(parsed)
    plan = QueryPlan(root, analyzed=analyze)
    if not analyze:
        return plan

    meter = _Meter(builder)
    with obs.span(
        "sparql.query.explain", kind=type(parsed).__name__, analyze=True
    ) as span:
        started = time.perf_counter()
        if isinstance(parsed, SelectQuery):
            plan.result = _execute_select(graph, parsed, observer=meter)
        elif isinstance(parsed, ConstructQuery):
            plan.result = _execute_construct(graph, parsed, observer=meter)
        else:
            plan.result = _execute_ask(graph, parsed, observer=meter)
        plan.seconds = time.perf_counter() - started
        plan.trace_id = span.trace_id
        tracer = trace.active()
        if tracer is not None:
            for node in root.walk():
                if not node.executed and node.op not in ("ask", "construct"):
                    continue
                tracer.event(
                    "sparql.operator.eval",
                    op=node.op,
                    detail=node.detail,
                    rows_in=node.rows_in,
                    rows_out=node.rows_out,
                    seconds=round(node.seconds, 9),
                    strategy=node.strategy,
                    estimate=node.estimate,
                )
    return plan
