"""Tests for engine state save/load (the AlexEngine method API)."""

import json
import random

import pytest

from repro.core import AlexConfig, AlexEngine
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.errors import ConfigError
from repro.features import FeatureSpace
from repro.feedback import FeedbackSession, GroundTruthOracle
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
    for i in range(5):
        left = Entity(URIRef(f"http://a/res/e{i}"), {LEFT_NAME: (Literal(f"Name{i} Jones"),)})
        for j in range(5):
            right = Entity(
                URIRef(f"http://b/res/e{j}"), {RIGHT_NAME: (Literal(f"Name{j} Jones"),)}
            )
            space.add_pair(left, right)
    space.freeze()
    return space


@pytest.fixture()
def trained_engine(space) -> AlexEngine:
    truth = LinkSet([link(i, i) for i in range(5)])
    engine = AlexEngine(space, LinkSet([link(0, 0)]), AlexConfig(episode_size=15, seed=3))
    session = FeedbackSession(engine, GroundTruthOracle(truth), seed=3)
    session.run(episode_size=15, max_episodes=6)
    return engine


class TestRoundTrip:
    def test_candidates_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        assert restored.candidates.snapshot() == trained_engine.candidates.snapshot()

    def test_blacklist_and_confirmed_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        assert restored.blacklist == trained_engine.blacklist
        assert restored.confirmed == trained_engine.confirmed

    def test_policy_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        for state in trained_engine.policy.states():
            assert restored.policy.greedy_action(state) == trained_engine.policy.greedy_action(state)

    def test_q_values_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        for state_action in trained_engine.values.known_pairs():
            assert restored.values.q(state_action) == pytest.approx(
                trained_engine.values.q(state_action)
            )

    def test_episode_counters_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        assert restored.episodes_completed == trained_engine.episodes_completed
        assert restored.converged_at == trained_engine.converged_at

    def test_restored_engine_keeps_learning(self, space, trained_engine):
        truth = LinkSet([link(i, i) for i in range(5)])
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        session = FeedbackSession(restored, GroundTruthOracle(truth), seed=4)
        session.run_episode(15)
        assert restored.episodes_completed == trained_engine.episodes_completed + 1

    def test_file_round_trip(self, space, trained_engine, tmp_path):
        path = str(tmp_path / "engine.json")
        trained_engine.save(path)
        restored = AlexEngine.load(space, path)
        assert restored.candidates.snapshot() == trained_engine.candidates.snapshot()
        # the file is real JSON
        with open(path) as handle:
            assert json.load(handle)["format_version"] == 1

    def test_scores_preserved(self, space):
        candidates = LinkSet()
        candidates.add(link(0, 0), score=0.93)
        engine = AlexEngine(space, candidates, AlexConfig(episode_size=5))
        restored = AlexEngine.from_dict(space, engine.to_dict())
        assert restored.candidates.score(link(0, 0)) == 0.93

    def test_unknown_version_rejected(self, space, trained_engine):
        state = trained_engine.to_dict()
        state["format_version"] = 99
        with pytest.raises(ConfigError):
            AlexEngine.from_dict(space, state)

    def test_dump_is_deterministic(self, space, trained_engine):
        first = json.dumps(trained_engine.to_dict(), sort_keys=True)
        second = json.dumps(trained_engine.to_dict(), sort_keys=True)
        assert first == second


def _trajectory(session: FeedbackSession, episodes: int) -> list:
    """Per-episode (feedback count, candidate snapshot) of a session."""
    out = []
    for _ in range(episodes):
        stats = session.run_episode(20)
        out.append((stats.feedback_count, session.engine.candidates.snapshot()))
    return out


def _canonical(state: dict) -> dict:
    """``to_dict`` output with list entries in a fixed order (the ledger's
    links and the distinctiveness features are dumped in set order)."""
    state = dict(state)
    state["ledger"] = [dict(entry, links=sorted(entry["links"])) for entry in state["ledger"]]
    return {
        key: sorted(json.dumps(item, sort_keys=True) for item in value)
        if isinstance(value, list) else value
        for key, value in state.items()
    }


class TestResumeParity:
    """Resuming from a mid-run snapshot reproduces the uninterrupted run."""

    @pytest.fixture(scope="class")
    def pair(self):
        return generate_pair(
            PairSpec(
                name="resume",
                left_name="left",
                right_name="right",
                profiles=(PERSON_PROFILE,),
                n_shared=20,
                n_left_only=10,
                n_right_only=10,
                noise_left=0.1,
                noise_right=0.25,
                seed=21,
            )
        )

    @pytest.fixture(scope="class")
    def pair_space(self, pair):
        return FeatureSpace.build(pair.left, pair.right, theta=0.3)

    def _fresh_session(self, pair, pair_space) -> FeedbackSession:
        initial = sorted(pair.ground_truth, key=lambda l: (l.left.value, l.right.value))[:3]
        engine = AlexEngine(pair_space, LinkSet(initial), AlexConfig(episode_size=20, seed=7))
        return FeedbackSession(engine, GroundTruthOracle(pair.ground_truth), seed=7)

    def test_resume_matches_uninterrupted_run(self, pair, pair_space):
        reference = self._fresh_session(pair, pair_space)
        uninterrupted = _trajectory(reference, 6)

        session = self._fresh_session(pair, pair_space)
        head = _trajectory(session, 2)
        state = json.loads(json.dumps(session.engine.to_dict()))
        restored = AlexEngine.from_dict(pair_space, state)
        resumed = FeedbackSession(restored, GroundTruthOracle(pair.ground_truth))
        resumed.rng.setstate(session.rng.getstate())

        assert head + _trajectory(resumed, 4) == uninterrupted
        assert _canonical(restored.to_dict()) == _canonical(reference.engine.to_dict())

    def test_state_without_rng_state_still_loads(self, space, trained_engine):
        state = trained_engine.to_dict()
        del state["rng_state"]
        restored = AlexEngine.from_dict(space, state)
        assert restored.rng.getstate() == random.Random(trained_engine.config.seed).getstate()
        assert restored.candidates.snapshot() == trained_engine.candidates.snapshot()

    def test_state_with_2x_pool_keys_still_loads(self, space, trained_engine, tmp_path):
        """2.x wrote the engine-level pool knobs into the config; 3.0
        dropped them from AlexConfig and ignores them on load."""
        state = trained_engine.to_dict()
        state["config"].update(pool_workers=2, pool_idle_timeout=300.0)
        path = tmp_path / "engine-2x.json"
        path.write_text(json.dumps(state))
        restored = AlexEngine.load(space, str(path))
        assert restored.config == trained_engine.config
        assert restored.candidates.snapshot() == trained_engine.candidates.snapshot()
        assert _canonical(restored.to_dict()) == _canonical(trained_engine.to_dict())


class TestDeprecatedShims:
    """The pre-1.1 four-function surface was removed in 2.0.0; the
    AlexEngine methods that replaced it never warn."""

    def test_new_api_does_not_warn(self, space, trained_engine, tmp_path):
        import warnings

        path = str(tmp_path / "engine.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trained_engine.save(path)
            AlexEngine.load(space, path)
            AlexEngine.from_dict(space, trained_engine.to_dict())
