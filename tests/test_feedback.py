"""Unit tests for feedback oracles and sessions."""

import hashlib

import pytest

from repro.core import AlexConfig, AlexEngine
from repro.errors import ConfigError
from repro.evaluation import QualityTracker
from repro.features import FeatureSpace
from repro.feedback import FeedbackSession, GroundTruthOracle, NoisyOracle
from repro.links import Link, LinkSet
from repro.rdf.entity import Entity
from repro.rdf.terms import Literal, URIRef

LEFT_NAME = URIRef("http://a/ont/name")
RIGHT_NAME = URIRef("http://b/ont/name")


def link(i: int, j: int) -> Link:
    return Link(URIRef(f"http://a/res/e{i}"), URIRef(f"http://b/res/e{j}"))


@pytest.fixture()
def space() -> FeatureSpace:
    space = FeatureSpace(theta=0.3)
    for i in range(4):
        left = Entity(URIRef(f"http://a/res/e{i}"), {LEFT_NAME: (Literal(f"Name{i} Jones"),)})
        for j in range(4):
            right = Entity(
                URIRef(f"http://b/res/e{j}"), {RIGHT_NAME: (Literal(f"Name{j} Jones"),)}
            )
            space.add_pair(left, right)
    space.freeze()
    return space


@pytest.fixture()
def ground_truth() -> LinkSet:
    return LinkSet([link(i, i) for i in range(4)])


class TestOracles:
    def test_ground_truth_oracle(self, ground_truth):
        oracle = GroundTruthOracle(ground_truth)
        assert oracle.judge(link(0, 0)) is True
        assert oracle.judge(link(0, 1)) is False

    def test_noisy_oracle_flips_at_rate(self, ground_truth):
        oracle = NoisyOracle(GroundTruthOracle(ground_truth), error_rate=0.3, seed=0)
        verdicts = [oracle.judge(link(0, 0)) for _ in range(2000)]
        flip_rate = verdicts.count(False) / len(verdicts)
        assert 0.25 < flip_rate < 0.35

    def test_noisy_oracle_zero_error(self, ground_truth):
        oracle = NoisyOracle(GroundTruthOracle(ground_truth), error_rate=0.0)
        assert all(oracle.judge(link(1, 1)) for _ in range(50))

    def test_invalid_error_rate(self, ground_truth):
        with pytest.raises(ConfigError):
            NoisyOracle(GroundTruthOracle(ground_truth), error_rate=1.0)

    def test_noisy_oracle_deterministic_by_seed(self, ground_truth):
        a = NoisyOracle(GroundTruthOracle(ground_truth), error_rate=0.5, seed=9)
        b = NoisyOracle(GroundTruthOracle(ground_truth), error_rate=0.5, seed=9)
        assert [a.judge(link(0, 0)) for _ in range(20)] == [
            b.judge(link(0, 0)) for _ in range(20)
        ]


class TestFeedbackSession:
    def test_session_improves_links(self, space, ground_truth):
        engine = AlexEngine(space, LinkSet([link(0, 0), link(0, 1)]), AlexConfig(episode_size=20, seed=2))
        tracker = QualityTracker(ground_truth)
        tracker.record_initial(engine.candidates)
        session = FeedbackSession(
            engine, GroundTruthOracle(ground_truth), seed=2,
            on_episode_end=tracker.on_episode_end,
        )
        session.run(episode_size=20, max_episodes=10)
        assert tracker.final.f_measure > tracker.records[0].f_measure
        assert tracker.final.quality.recall == 1.0

    def test_episode_size_validated(self, space, ground_truth):
        engine = AlexEngine(space, LinkSet([link(0, 0)]), AlexConfig(episode_size=5))
        session = FeedbackSession(engine, GroundTruthOracle(ground_truth))
        with pytest.raises(ConfigError):
            session.run_episode(0)

    def test_total_feedback_counted(self, space, ground_truth):
        engine = AlexEngine(space, LinkSet([link(0, 0)]), AlexConfig(episode_size=5, seed=1))
        session = FeedbackSession(engine, GroundTruthOracle(ground_truth), seed=1)
        session.run_episode(5)
        assert session.total_feedback == 5

    def test_empty_candidates_end_quietly(self, space, ground_truth):
        engine = AlexEngine(space, LinkSet(), AlexConfig(episode_size=5))
        session = FeedbackSession(engine, GroundTruthOracle(ground_truth))
        stats = session.run_episode(5)
        assert stats.feedback_count == 0

    def test_deterministic_given_seeds(self, space, ground_truth):
        def run():
            engine = AlexEngine(
                space, LinkSet([link(0, 0), link(1, 2)]), AlexConfig(episode_size=15, seed=4)
            )
            session = FeedbackSession(engine, GroundTruthOracle(ground_truth), seed=4)
            session.run(episode_size=15, max_episodes=8)
            return engine.candidates.snapshot()

        assert run() == run()

    def test_callback_invoked_per_episode(self, space, ground_truth):
        engine = AlexEngine(space, LinkSet([link(0, 0)]), AlexConfig(episode_size=5, seed=1))
        calls = []
        session = FeedbackSession(
            engine, GroundTruthOracle(ground_truth), seed=1,
            on_episode_end=lambda stats, candidates: calls.append(stats.index),
        )
        session.run_episode(5)
        session.run_episode(5)
        assert calls == [1, 2]


class TestCandidatePoolParity:
    """The session samples from ``LinkSet.ordered()``; a loop that re-sorts
    the whole candidate list after every change must draw the same links."""

    @staticmethod
    def _series_entry(candidates: LinkSet) -> tuple[int, str]:
        lines = sorted(f"{l.left.value} {l.right.value}\n" for l in candidates)
        return len(candidates), hashlib.sha256("".join(lines).encode()).hexdigest()

    @staticmethod
    def _reference_episode(engine, oracle, rng, episode_size):
        def resorted_pool():
            return sorted(engine.candidates, key=lambda l: (l.left.value, l.right.value))

        pool = resorted_pool()
        for _ in range(episode_size):
            if not pool:
                break
            link = pool[rng.randrange(len(pool))]
            verdict = oracle.judge(link)
            discovered = engine.process_feedback(link, verdict)
            if verdict is False or discovered:
                pool = resorted_pool()
        return engine.end_episode()

    def test_series_matches_resorting_reference(self):
        import random

        from repro.datasets import load_pair
        from repro.paris import paris_links

        pair = load_pair("dbpedia_nba_nytimes")
        space = FeatureSpace.build(pair.left, pair.right)
        # a permissive threshold: wrong links to remove as well as gaps to explore
        initial = paris_links(pair.left, pair.right, 0.1)
        config = AlexConfig(episode_size=25, seed=3)
        episodes, size = 8, 25

        engine = AlexEngine(space, initial, config)
        series, stats = [], []
        session = FeedbackSession(
            engine, GroundTruthOracle(pair.ground_truth), seed=5,
            on_episode_end=lambda s, candidates: (
                stats.append(s), series.append(self._series_entry(candidates))
            ),
        )
        for _ in range(episodes):
            session.run_episode(size)

        reference_engine = AlexEngine(space, initial, config)
        oracle, rng = GroundTruthOracle(pair.ground_truth), random.Random(5)
        reference = []
        for _ in range(episodes):
            self._reference_episode(reference_engine, oracle, rng, size)
            reference.append(self._series_entry(reference_engine.candidates))

        assert series == reference
        # the run exercised both directions in which the pool changes
        assert sum(s.links_removed for s in stats) > 0
        assert sum(s.links_discovered for s in stats) > 0
