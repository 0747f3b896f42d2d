"""A practical SPARQL subset: parser, static analyzer, and evaluator."""

from repro.sparql.aggregates import Aggregate
from repro.sparql.analysis import CODES, Diagnostic, analyze_query, check_query
from repro.sparql.ast import (
    AskQuery,
    BGP,
    ConstructQuery,
    Filter,
    GroupGraphPattern,
    OptionalPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    Var,
)
from repro.sparql.eval import (
    EvalObserver,
    QueryResult,
    query,
)
from repro.sparql.explain import PLAN_SCHEMA, PlanNode, QueryPlan, explain
from repro.sparql.parser import parse_query
from repro.sparql.prepared import PreparedQuery, clear_plan_cache, prepare

__all__ = [
    "Aggregate",
    "AskQuery",
    "BGP",
    "CODES",
    "ConstructQuery",
    "Diagnostic",
    "EvalObserver",
    "Filter",
    "GroupGraphPattern",
    "OptionalPattern",
    "PLAN_SCHEMA",
    "PlanNode",
    "PreparedQuery",
    "QueryPlan",
    "QueryResult",
    "SelectQuery",
    "TriplePattern",
    "UnionPattern",
    "Var",
    "analyze_query",
    "check_query",
    "clear_plan_cache",
    "explain",
    "parse_query",
    "prepare",
    "query",
]
