"""Federated query workloads: feedback through real queries.

The paper's deployment story (Section 3.2) is that users never see links —
they see *answers to federated queries* and approve/reject those. The
experiments shortcut this by sampling links directly (Section 7.1); this
module builds the full loop: it generates plausible federated SELECT queries
over a dataset pair (each query joins an attribute of a left entity with an
attribute reachable only through a sameAs link), executes them on the
federation engine, and routes the oracle's per-answer verdicts to ALEX.

This is how the repository demonstrates that query-level feedback and
link-level feedback drive the same learning process (see
``benchmarks/bench_workload_feedback.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.engine import AlexEngine
from repro.core.parallel import PartitionedAlex
from repro.errors import ConfigError
from repro.federation.executor import FederatedEngine
from repro.feedback.oracle import FeedbackOracle
from repro.feedback.session import QueryFeedbackSession
from repro.links import Link, LinkSet
from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef

Engine = AlexEngine | PartitionedAlex


@dataclass(frozen=True)
class WorkloadQuery:
    """One generated federated query and the entity that seeds it."""

    text: str
    seed_entity: URIRef


class QueryWorkloadGenerator:
    """Generates entity-centric federated queries over a dataset pair.

    Each query asks for the cross-dataset attributes of one left-side
    entity: ``SELECT ?left_value ?right_value WHERE { <entity> <p_left>
    ?left_value . <entity> <p_right> ?right_value . }`` — answerable only
    through a sameAs link for ``<entity>``, exactly the query shape of the
    paper's NBA-MVP example.
    """

    def __init__(self, left: Graph, right: Graph, seed: int = 0):
        self.left = left
        self.right = right
        self.rng = random.Random(seed)
        self._left_entities = sorted(left.entities(), key=str)
        self._right_predicates = sorted(right.predicates(), key=lambda p: p.value)
        if not self._left_entities:
            raise ConfigError("the left dataset has no entities to query about")
        if not self._right_predicates:
            raise ConfigError("the right dataset has no predicates to query")

    def generate(self, focus: URIRef | None = None) -> WorkloadQuery:
        """One query; ``focus`` pins the seed entity (else random)."""
        entity = focus if focus is not None else self.rng.choice(self._left_entities)
        left_predicates = sorted(self.left.predicates(subject=entity), key=lambda p: p.value)
        if not left_predicates:
            raise ConfigError(f"entity {entity} has no attributes")
        left_predicate = self.rng.choice(left_predicates)
        right_predicate = self.rng.choice(self._right_predicates)
        text = (
            "SELECT ?leftValue ?rightValue WHERE {\n"
            f"  <{entity}> <{left_predicate}> ?leftValue .\n"
            f"  <{entity}> <{right_predicate}> ?rightValue .\n"
            "}"
        )
        return WorkloadQuery(text=text, seed_entity=entity)

    def batch(self, count: int) -> list[WorkloadQuery]:
        return [self.generate() for _ in range(count)]


class WorkloadSession:
    """Drives ALEX with generated federated queries until the feedback
    budget of an episode is spent, then improves the policy — the
    query-level analogue of :class:`~repro.feedback.session.FeedbackSession`.
    """

    def __init__(
        self,
        alex: Engine,
        federation: FederatedEngine,
        generator: QueryWorkloadGenerator,
        oracle: FeedbackOracle,
        seed: int = 0,
    ):
        self.alex = alex
        self.federation = federation
        self.generator = generator
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.query_session = QueryFeedbackSession(alex, federation, oracle)
        self.queries_issued = 0
        self.queries_answered = 0

    def _linked_entities(self) -> list[URIRef]:
        """Left entities that currently have a candidate link — queries
        about them can produce cross-dataset answers. The candidates'
        ordered view sorts by left value first, so this is already the
        entities in ``str`` order."""
        entities: list[URIRef] = []
        for link in self.alex.candidates.ordered():
            if not entities or link.left != entities[-1]:
                entities.append(link.left)
        return entities

    def run_episode(self, feedback_budget: int, max_queries: int | None = None) -> int:
        """Issue queries until ``feedback_budget`` feedback items were
        produced (or ``max_queries`` issued); then end the episode.

        Returns the number of feedback items produced. Queries are biased
        toward entities that have candidate links — queries about unlinked
        entities return no cross-dataset answers and produce no feedback,
        mirroring how real users gravitate to queries that work.
        """
        if feedback_budget < 1:
            raise ConfigError("feedback_budget must be >= 1")
        produced = 0
        issued = 0
        budget_queries = max_queries if max_queries is not None else feedback_budget * 10
        while produced < feedback_budget and issued < budget_queries:
            linked = self._linked_entities()
            focus = self.rng.choice(linked) if linked and self.rng.random() < 0.8 else None
            workload_query = self.generator.generate(focus)
            issued += 1
            self.queries_issued += 1
            items = self.query_session.submit_query(workload_query.text)
            if items:
                self.queries_answered += 1
            produced += items
        self.alex.end_episode()
        return produced

    def run(self, episodes: int, feedback_budget: int) -> int:
        """Run several episodes; returns total feedback items produced."""
        total = 0
        for _ in range(episodes):
            if self.alex.stopped:
                break
            total += self.run_episode(feedback_budget)
        return total
