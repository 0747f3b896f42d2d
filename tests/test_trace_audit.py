"""The RL decision audit trail: engine, session, federation, and parity tests.

The acceptance bar for the tracing PR: from a run's trace records alone,
reconstruct *why* a link exists (which feature was chosen, in which
explore/exploit mode, and what reward followed) — for links that survived
and for links that a rollback later forgot — and prove that installing the
tracer changes nothing about a seeded run's results.
"""

import random

import pytest

from repro import obs
from repro.core import AlexConfig, AlexEngine
from repro.core.policy import EpsilonGreedyPolicy
from repro.errors import FederationError
from repro.features import FeatureSpace
from repro.federation import Endpoint, FederatedEngine
from repro.feedback import FeedbackSession, GroundTruthOracle
from repro.links import Link, LinkSet
from repro.obs import trace
from repro.rdf import turtle
from repro.rdf.entity import Entity
from repro.rdf.terms import Literal, URIRef

LEFT_NAME = URIRef("http://a/ont/name")
RIGHT_NAME = URIRef("http://b/ont/name")


def left_entity(index, name):
    return Entity(URIRef(f"http://a/res/e{index}"), {LEFT_NAME: (Literal(name),)})


def right_entity(index, name):
    return Entity(URIRef(f"http://b/res/e{index}"), {RIGHT_NAME: (Literal(name),)})


def link(i, j):
    return Link(URIRef(f"http://a/res/e{i}"), URIRef(f"http://b/res/e{j}"))


@pytest.fixture()
def space():
    space = FeatureSpace(theta=0.3)
    names = ["Alpha Jones", "Bravo Jones", "Carol Jones", "Delta Jones", "Echo Jones"]
    lefts = [left_entity(i, name) for i, name in enumerate(names)]
    rights = [right_entity(i, name) for i, name in enumerate(names)]
    for left in lefts:
        for right in rights:
            space.add_pair(left, right)
    space.freeze()
    return space


def rollback_config(**overrides):
    settings = dict(
        episode_size=50, rollback_min_negatives=2, rollback_negative_fraction=0.6, seed=1
    )
    settings.update(overrides)
    return AlexConfig(**settings)


def events_named(tracer, name):
    return [r for r in tracer.records() if r["name"] == name]


class TestDiscoveryAuditTrail:
    def test_discovered_link_chain_is_reconstructible(self, space):
        """feature.select → link.discover → link.approve, all correlated."""
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            engine = AlexEngine(space, LinkSet([link(0, 0)]), rollback_config())
            discovered = engine.process_feedback(link(0, 0), positive=True)
            confirmed = discovered[0]
            engine.process_feedback(confirmed, positive=True)

        assert discovered
        selects = events_named(tracer, "alex.feature.select")
        assert selects, "every exploration starts with a feature.select event"
        select = selects[0]["attrs"]
        assert select["state"] == str(link(0, 0))
        assert select["mode"] in ("bootstrap", "uniform", "exploit", "explore")
        # the Q estimates that justified the choice ride along
        assert select["feature"] in select["q"]

        discovers = events_named(tracer, "alex.link.discover")
        by_link = {e["attrs"]["link"]: e["attrs"] for e in discovers}
        for found in discovered:
            attrs = by_link[str(found)]
            assert attrs["state"] == select["state"]
            assert attrs["feature"] == select["feature"]
            assert attrs["mode"] == select["mode"]

        approves = events_named(tracer, "alex.link.approve")
        rewarded = {e["attrs"]["link"]: e["attrs"]["reward"] for e in approves}
        assert rewarded[str(confirmed)] == engine.config.positive_reward

    def test_reject_and_blacklist_events(self, space):
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            engine = AlexEngine(
                space, LinkSet([link(0, 0)]), rollback_config(use_rollback=False)
            )
            discovered = engine.process_feedback(link(0, 0), positive=True)
            victim = discovered[0]
            engine.process_feedback(victim, positive=False)

        (reject,) = events_named(tracer, "alex.link.reject")
        assert reject["attrs"]["link"] == str(victim)
        assert reject["attrs"]["reward"] == engine.config.negative_reward
        assert reject["attrs"]["removed"] is True
        (blacklisted,) = events_named(tracer, "alex.blacklist.insert")
        assert blacklisted["attrs"]["link"] == str(victim)
        assert victim in engine.blacklist


class TestRollbackAuditTrail:
    def test_rolled_back_link_chain_is_reconstructible(self, space):
        """A link forgotten by rollback still has its full decision chain:
        discover (feature + mode) and the rollback that took it away."""
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            engine = AlexEngine(space, LinkSet([link(0, 0)]), rollback_config())
            discovered = engine.process_feedback(link(0, 0), positive=True)
            engine.process_feedback(discovered[0], positive=False)
            engine.process_feedback(discovered[1], positive=False)

        rollbacks = events_named(tracer, "alex.rollback.apply")
        assert rollbacks, "two rejections past the threshold must trip a rollback"
        rollback = rollbacks[0]["attrs"]
        forgotten = set(rollback["links_forgotten"])
        survivors = {str(l) for l in discovered[2:]}
        assert survivors & forgotten

        discovers = {
            e["attrs"]["link"]: e["attrs"]
            for e in events_named(tracer, "alex.link.discover")
        }
        for name in survivors & forgotten:
            chain = discovers[name]
            # same generator the rollback names: state + feature line up
            assert chain["feature"] == rollback["feature"]
            assert chain["state"] == rollback["state"]
            assert chain["mode"] in ("bootstrap", "uniform", "exploit", "explore")
        # and the links really are gone
        for l in discovered[2:]:
            assert l not in engine.candidates
        assert rollback["negatives"] >= engine.config.rollback_min_negatives


class TestSessionSpans:
    def test_episode_span_wraps_engine_events(self, space):
        truth = LinkSet([link(i, i) for i in range(5)])
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            engine = AlexEngine(space, LinkSet([link(0, 0)]), rollback_config())
            session = FeedbackSession(engine, GroundTruthOracle(truth), seed=3)
            session.run(episode_size=5, max_episodes=2)

        spans = [r for r in tracer.records() if r["kind"] == "span"]
        episode_spans = [s for s in spans if s["name"] == "alex.episode.run"]
        assert len(episode_spans) == 2
        assert [s["attrs"]["index"] for s in episode_spans] == [1, 2]
        trace_ids = {s["trace"] for s in episode_spans}
        ends = events_named(tracer, "alex.episode.end")
        assert len(ends) == 2
        # engine events land inside the episode's trace, not trace-less
        for record in tracer.records():
            if record["name"].startswith("alex."):
                assert record["trace"] in trace_ids

    def test_one_span_feeds_aggregates_and_trace(self, space):
        truth = LinkSet([link(i, i) for i in range(5)])
        with obs.use_registry(obs.Registry("t")) as registry:
            tracer = trace.install(seed=0)
            engine = AlexEngine(space, LinkSet([link(0, 0)]), rollback_config())
            FeedbackSession(engine, GroundTruthOracle(truth), seed=3).run(
                episode_size=5, max_episodes=2
            )
            aggregates = {e["path"]: e["count"] for e in registry.snapshot()["spans"]}
        episode_spans = events_named(tracer, "alex.episode.run")
        assert aggregates["alex.episode.run"] == len(episode_spans) == 2
        explores = events_named(tracer, "alex.feature.explore")
        assert explores
        assert aggregates["alex.episode.run/alex.feature.explore"] == len(explores)
        episode_ids = {s["span"] for s in episode_spans}
        assert all(record["parent"] in episode_ids for record in explores)

    def test_engine_without_session_traces_traceless(self, space):
        """Without a session, one explore action is one trace; the feedback
        events around it stay trace-less."""
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            engine = AlexEngine(
                space, LinkSet([link(0, 0)]), rollback_config(use_rollback=False)
            )
            discovered = engine.process_feedback(link(0, 0), positive=True)
            engine.process_feedback(discovered[0], positive=False)
        records = tracer.records()
        (explore,) = events_named(tracer, "alex.feature.explore")
        assert explore["kind"] == "span"
        assert explore["trace"] is not None and explore["parent"] is None
        grouped = [
            r for r in records
            if r["name"] in ("alex.feature.select", "alex.link.discover")
        ]
        assert {r["name"] for r in grouped} == {"alex.feature.select", "alex.link.discover"}
        for record in grouped:
            assert record["trace"] == explore["trace"]
            assert record["parent"] == explore["span"]
        loose = ("alex.link.approve", "alex.link.reject", "alex.blacklist.insert")
        assert {r["name"] for r in records if r["name"] in loose} == set(loose)
        assert all(r["trace"] is None for r in records if r["name"] in loose)


class TestTracingChangesNothing:
    def run_engine(self, space, tracing):
        with obs.use_registry(obs.Registry("t")) as registry:
            if tracing:
                trace.install(seed=0)
            truth = LinkSet([link(i, i) for i in range(5)])
            engine = AlexEngine(space, LinkSet([link(0, 0)]), rollback_config())
            session = FeedbackSession(engine, GroundTruthOracle(truth), seed=3)
            session.run(episode_size=5, max_episodes=3)
            return engine.candidates.snapshot(), registry.snapshot()

    def test_seeded_run_parity_and_no_new_obs_names(self, space):
        bare_candidates, bare_snapshot = self.run_engine(space, tracing=False)
        traced_candidates, traced_snapshot = self.run_engine(space, tracing=True)
        assert bare_candidates == traced_candidates
        assert "events" not in bare_snapshot
        assert "events" in traced_snapshot

        def names(snapshot):
            return {
                entry["name"]
                for section in ("counters", "gauges", "histograms")
                for entry in snapshot[section]
            } | {entry["path"] for entry in snapshot["spans"]}

        # tracing introduces no aggregate instruments of its own
        assert names(bare_snapshot) == names(traced_snapshot)

    def test_policy_mode_variant_consumes_identical_rng(self):
        policy = EpsilonGreedyPolicy(0.1)
        policy.improve(link(0, 0), (LEFT_NAME, RIGHT_NAME))
        available = [(LEFT_NAME, RIGHT_NAME), (RIGHT_NAME, LEFT_NAME)]
        picks = [
            policy.choose(link(0, 0), available, random.Random(7)) for _ in range(1)
        ] + [policy.choose(link(i, i), available, random.Random(7)) for i in range(3)]
        modes = [
            policy.choose_with_mode(link(0, 0), available, random.Random(7))
        ] + [policy.choose_with_mode(link(i, i), available, random.Random(7)) for i in range(3)]
        assert picks == [action for action, _ in modes]
        assert all(
            mode in ("uniform", "exploit", "explore") for _, mode in modes
        )


class TestWorkerPropagation:
    def test_partition_events_ride_home_in_snapshots(self, space):
        from repro.core.parallel_mp import run_partitions_parallel

        truth = LinkSet([link(i, i) for i in range(5)])
        with obs.use_registry(obs.Registry("parent")):
            tracer = trace.install(seed=0)
            merged, outcomes = run_partitions_parallel(
                [space],
                LinkSet([link(0, 0)]),
                truth,
                rollback_config(),
                episode_size=5,
                max_episodes=2,
                max_workers=1,
            )
        assert link(0, 0) in merged
        # the worker's audit events were absorbed into the parent's tracer
        names = {r["name"] for r in tracer.records()}
        assert "alex.episode.end" in names
        assert any(r["name"] == "alex.episode.run" for r in tracer.records())
        (outcome,) = outcomes
        assert "events" in outcome.obs_snapshot

    def test_no_parent_tracer_means_no_worker_events(self, space):
        from repro.core.parallel_mp import run_partitions_parallel

        truth = LinkSet([link(i, i) for i in range(5)])
        with obs.use_registry(obs.Registry("parent")) as registry:
            _, outcomes = run_partitions_parallel(
                [space],
                LinkSet([link(0, 0)]),
                truth,
                rollback_config(),
                episode_size=5,
                max_episodes=2,
                max_workers=1,
            )
            assert registry.tracer is None
        (outcome,) = outcomes
        assert "events" not in outcome.obs_snapshot


DB = "http://db/"
NYT = "http://nyt/"
FED_QUERY = """
    PREFIX db: <http://db/>
    PREFIX nyt: <http://nyt/>
    SELECT ?a WHERE { ?p db:award db:mvp2013 . ?p nyt:topicOf ?a . }
"""


@pytest.fixture()
def federation():
    dbpedia = turtle.load(
        """
        @prefix db: <http://db/> .
        db:lebron db:award db:mvp2013 ; db:name "LeBron James" .
        db:durant db:award db:mvp2014 ; db:name "Kevin Durant" .
        """,
        name="dbpedia",
    )
    nytimes = turtle.load(
        """
        @prefix nyt: <http://nyt/> .
        nyt:lebron nyt:topicOf nyt:a1 , nyt:a2 .
        nyt:durant nyt:topicOf nyt:a3 .
        """,
        name="nytimes",
    )
    links = LinkSet(
        [
            Link(URIRef(DB + "lebron"), URIRef(NYT + "lebron")),
            Link(URIRef(DB + "durant"), URIRef(NYT + "durant")),
        ]
    )
    return FederatedEngine(
        [Endpoint(dbpedia, name="dbpedia"), Endpoint(nytimes, name="nytimes")], links
    )


class TestFederationTracing:
    def test_result_and_rows_carry_trace_id(self, federation):
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            result = federation.select(FED_QUERY)
        spans = [r for r in tracer.records() if r["kind"] == "span"]
        (execute,) = [s for s in spans if s["name"] == "federation.query.execute"]
        assert result.trace_id == execute["trace"]
        assert len(result) == 2
        assert all(row.trace_id == execute["trace"] for row in result.rows)

    def test_endpoint_and_source_selection_events_correlated(self, federation):
        with obs.use_registry(obs.Registry("t")):
            tracer = trace.install(seed=0)
            result = federation.select(FED_QUERY)
        records = tracer.records()
        requests = [r for r in records if r["name"] == "federation.endpoint.request"]
        assert {r["attrs"]["endpoint"] for r in requests} == {"dbpedia", "nytimes"}
        selections = [r for r in records if r["name"] == "federation.source.select"]
        assert len(selections) == 2  # one rationale per pattern
        for selection in selections:
            assert selection["attrs"]["rationale"]
            assert selection["attrs"]["selected"]
        # everything shares the executor span's trace
        assert {r["trace"] for r in records} == {result.trace_id}

    def test_untraced_run_leaves_trace_id_none(self, federation):
        with obs.use_registry(obs.Registry("t")):
            result = federation.select(FED_QUERY)
        assert result.trace_id is None
        assert all(row.trace_id is None for row in result.rows)

    def test_federation_error_captures_active_trace_id(self):
        with obs.use_registry(obs.Registry("t")):
            trace.install(seed=0)
            with obs.span("federation.query.execute") as span:
                error = FederationError("endpoint fell over")
            assert span.trace_id is not None
            assert error.trace_id == span.trace_id
            outside = FederationError("no trace active")
            assert outside.trace_id is None
