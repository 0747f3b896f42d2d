"""Unit tests for PartitionedAlex and AlexConfig validation."""

import pytest

from repro.core import AlexConfig, PartitionedAlex
from repro.core.parallel import partition_index
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.errors import ConfigError
from repro.features import FeatureSpace, build_partitioned_spaces
from repro.links import Link, LinkSet
from repro.rdf.entity import Entity
from repro.rdf.terms import Literal, URIRef

LEFT_NAME = URIRef("http://a/ont/name")
RIGHT_NAME = URIRef("http://b/ont/name")


def make_space(indices: list[int]) -> FeatureSpace:
    space = FeatureSpace(theta=0.3)
    for i in indices:
        left = Entity(URIRef(f"http://a/res/e{i}"), {LEFT_NAME: (Literal(f"Name{i} Jones"),)})
        right = Entity(URIRef(f"http://b/res/e{i}"), {RIGHT_NAME: (Literal(f"Name{i} Jones"),)})
        space.add_pair(left, right)
    space.freeze()
    return space


def link(i: int) -> Link:
    return Link(URIRef(f"http://a/res/e{i}"), URIRef(f"http://b/res/e{i}"))


class TestAlexConfig:
    def test_defaults_follow_paper(self):
        cfg = AlexConfig(episode_size=1000)
        assert cfg.step_size == 0.05
        assert cfg.theta == 0.3
        assert cfg.max_episodes == 100
        assert cfg.relaxed_change_threshold == 0.05

    @pytest.mark.parametrize(
        "overrides",
        [
            {"episode_size": 0},
            {"episode_size": 10, "step_size": 0.0},
            {"episode_size": 10, "step_size": 0.9},
            {"episode_size": 10, "epsilon": 0.0},
            {"episode_size": 10, "epsilon": 1.0},
            {"episode_size": 10, "theta": -0.1},
            {"episode_size": 10, "positive_reward": -1.0},
            {"episode_size": 10, "negative_reward": 1.0},
            {"episode_size": 10, "max_episodes": 0},
            {"episode_size": 10, "relaxed_change_threshold": 0.0},
            {"episode_size": 10, "rollback_min_negatives": 0},
            {"episode_size": 10, "rollback_negative_fraction": 0.0},
            {"episode_size": 10, "convergence_patience": 0},
            {"episode_size": 10, "distinctiveness_min_negatives": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            AlexConfig(**overrides)

    def test_replace(self):
        cfg = AlexConfig(episode_size=10)
        assert cfg.replace(step_size=0.1).step_size == 0.1
        assert cfg.step_size == 0.05  # original untouched


class TestPartitionedAlex:
    @pytest.fixture()
    def partitioned(self):
        spaces = [make_space([0, 1, 2]), make_space([3, 4, 5])]
        initial = LinkSet([link(0), link(3)])
        return PartitionedAlex(spaces, initial, AlexConfig(episode_size=10, seed=1))

    def test_initial_links_routed_to_owning_partition(self, partitioned):
        assert link(0) in partitioned.engines[0].candidates
        assert link(3) in partitioned.engines[1].candidates

    def test_feedback_routed(self, partitioned):
        partitioned.process_feedback(link(4), positive=True)
        assert link(4) in partitioned.engines[1].candidates
        assert link(4) not in partitioned.engines[0].candidates

    def test_candidates_union(self, partitioned):
        assert set(partitioned.candidates) == {link(0), link(3)}

    def test_end_episode_merges_stats(self, partitioned):
        partitioned.process_feedback(link(0), positive=True)
        partitioned.process_feedback(link(3), positive=True)
        stats = partitioned.end_episode()
        assert stats.feedback_count == 2
        assert stats.positive_count == 2

    def test_convergence_requires_all_partitions(self, partitioned):
        partitioned.engines[0].end_episode()
        assert not partitioned.converged
        partitioned.engines[1].end_episode()
        assert partitioned.converged
        assert partitioned.converged_at == 1

    def test_link_outside_all_spaces_gets_hashed_owner(self, partitioned):
        stray = Link(URIRef("http://a/res/zz"), URIRef("http://b/res/zz"))
        engine = partitioned.engine_for(stray)
        assert engine in partitioned.engines

    def test_engines_have_distinct_seeds(self, partitioned):
        seeds = {engine.config.seed for engine in partitioned.engines}
        assert len(seeds) == 2

    def test_empty_spaces_rejected(self):
        with pytest.raises(ConfigError):
            PartitionedAlex([], LinkSet(), AlexConfig(episode_size=10))

    def test_owns(self, partitioned):
        assert partitioned.owns(link(5))
        assert not partitioned.owns(
            Link(URIRef("http://a/res/zz"), URIRef("http://b/res/zz"))
        )


class TestPartitionRouting:
    def test_routing_follows_partition_index(self):
        """PartitionedAlex sends every link to the partition that
        partition_index names, at construction and on feedback: the first
        space containing it, else the left-entity hash."""
        pair = generate_pair(
            PairSpec(
                name="routing",
                left_name="left",
                right_name="right",
                profiles=(PERSON_PROFILE,),
                n_shared=30,
                n_left_only=20,
                n_right_only=10,
                noise_left=0.1,
                noise_right=0.25,
                seed=21,
            )
        )
        spaces = build_partitioned_spaces(pair.left, pair.right, 3)
        inside = [min(space.links()) for space in spaces]
        outside = [
            Link(URIRef(f"http://nowhere/l{i}"), URIRef(f"http://nowhere/r{i}"))
            for i in range(12)
        ]
        assert not any(stray in space for stray in outside for space in spaces)
        links = inside + outside
        expected = [partition_index(spaces, candidate) for candidate in links]
        assert expected[:3] == [0, 1, 2]
        assert len(set(expected[3:])) > 1  # the hash spreads the outsiders
        config = AlexConfig(episode_size=1, seed=5)

        seeded = PartitionedAlex(spaces, LinkSet(links), config)
        for candidate, index in zip(links, expected):
            holders = [i for i, e in enumerate(seeded.engines) if candidate in e.candidates]
            assert holders == [index]
        empty = PartitionedAlex(spaces, LinkSet(), config)
        assert [empty.engines.index(empty.engine_for(candidate)) for candidate in links] == expected
