"""End-to-end check that the instrumented stack actually reports metrics."""

import pytest

from repro import (
    AlexConfig,
    AlexEngine,
    Endpoint,
    FeatureSpace,
    FederatedEngine,
    FeedbackSession,
    GroundTruthOracle,
    load_pair,
    obs,
    paris_links,
)
from repro.sparql.eval import query as run_query

QUERY = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5"


@pytest.fixture(scope="module")
def workload():
    pair = load_pair("dbpedia_nba_nytimes")
    default_before = obs.counter_total(obs.snapshot(), "federation.queries")
    with obs.use_registry() as registry:
        space = FeatureSpace.build(pair.left, pair.right)
        initial = paris_links(pair.left, pair.right, score_threshold=0.8)
        engine = AlexEngine(space, initial, AlexConfig(episode_size=10, seed=7))
        session = FeedbackSession(engine, GroundTruthOracle(pair.ground_truth), seed=7)
        session.run(episode_size=10, max_episodes=2)

        run_query(pair.left, QUERY)
        federation = FederatedEngine(
            [Endpoint(pair.left, name="left"), Endpoint(pair.right, name="right")],
            links=engine.candidates,
        )
        federation.select(QUERY)
        snapshot = registry.snapshot()
    default_after = obs.counter_total(obs.snapshot(), "federation.queries")
    return snapshot, default_after - default_before


@pytest.fixture(scope="module")
def workload_snapshot(workload):
    return workload[0]


class TestQuickstartMetrics:
    def test_engine_metrics_nonzero(self, workload_snapshot):
        assert obs.counter_total(workload_snapshot, "alex.feedback.processed") > 0
        assert obs.counter_total(workload_snapshot, "alex.episodes") == 2

    def test_sparql_metrics_nonzero(self, workload_snapshot):
        assert obs.counter_total(workload_snapshot, "sparql.queries") > 0
        assert obs.counter_total(workload_snapshot, "sparql.patterns.matched") > 0

    def test_federation_metrics_nonzero(self, workload_snapshot):
        assert obs.counter_total(workload_snapshot, "federation.queries") == 1
        assert obs.counter_total(workload_snapshot, "federation.requests") > 0

    def test_space_metrics_nonzero(self, workload_snapshot):
        scanned = obs.counter_total(workload_snapshot, "space.pairs.scanned")
        admitted = obs.counter_total(workload_snapshot, "space.pairs.admitted")
        assert scanned >= admitted > 0

    def test_span_tree_recorded(self, workload_snapshot):
        paths = {entry["path"] for entry in workload_snapshot["spans"]}
        assert "alex.episode.run" in paths
        assert "alex.episode.run/alex.feature.explore" in paths
        assert "federation.query.execute" in paths

    def test_nothing_leaked_to_default_registry(self, workload):
        # the module fixture ran inside use_registry(); the process-global
        # default must not have accumulated this workload's events (other
        # tests may have bumped it, so compare before/after the fixture)
        assert workload[1] == 0
