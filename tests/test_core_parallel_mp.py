"""Tests for the multiprocessing partition runner (and pickling support)."""

import pickle

import pytest

from repro.core import AlexConfig, PartitionedAlex
from repro.core.parallel import partition_index
from repro.core.parallel_mp import run_partitions_parallel
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.errors import ConfigError
from repro.evaluation import evaluate_links
from repro.features import FeatureSpace, build_partitioned_spaces
from repro.links import Link, LinkSet
from repro.paris import paris_links
from repro.rdf.terms import BNode, Literal, URIRef


@pytest.fixture(scope="module")
def pair():
    return generate_pair(
        PairSpec(
            name="mp",
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


class TestPickling:
    def test_terms_pickle(self):
        for term in (URIRef("http://x/a"), BNode("b1"), Literal("v", language="en"),
                     Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")):
            assert pickle.loads(pickle.dumps(term)) == term

    def test_feature_space_pickles(self, pair):
        space = FeatureSpace.build(pair.left, pair.right)
        clone = pickle.loads(pickle.dumps(space))
        assert set(clone.links()) == set(space.links())
        some_link = next(iter(space.links()))
        assert clone.feature_set(some_link) == space.feature_set(some_link)

    def test_linkset_pickles(self, pair):
        clone = pickle.loads(pickle.dumps(pair.ground_truth))
        assert clone == pair.ground_truth


class TestParallelRun:
    def test_parallel_matches_quality(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        initial = paris_links(pair.left, pair.right, 0.8)
        merged, outcomes = run_partitions_parallel(
            spaces,
            initial,
            pair.ground_truth,
            AlexConfig(episode_size=30, seed=5, rollback_min_negatives=3),
            episode_size=30,
            max_episodes=25,
            max_workers=2,
        )
        assert len(outcomes) == 2
        quality = evaluate_links(merged, pair.ground_truth)
        assert quality.f_measure > 0.75

    def test_sequential_fallback_deterministic(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        initial = paris_links(pair.left, pair.right, 0.8)

        def run():
            merged, _ = run_partitions_parallel(
                spaces, initial, pair.ground_truth,
                AlexConfig(episode_size=20, seed=5, rollback_min_negatives=3),
                episode_size=20, max_episodes=10, max_workers=1,
            )
            return merged.snapshot()

        assert run() == run()

    def test_parallel_equals_sequential(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        initial = paris_links(pair.left, pair.right, 0.8)
        config = AlexConfig(episode_size=20, seed=5, rollback_min_negatives=3)
        sequential, _ = run_partitions_parallel(
            spaces, initial, pair.ground_truth, config,
            episode_size=20, max_episodes=10, max_workers=1,
        )
        parallel, _ = run_partitions_parallel(
            spaces, initial, pair.ground_truth, config,
            episode_size=20, max_episodes=10, max_workers=2,
        )
        assert sequential.snapshot() == parallel.snapshot()

    def test_outcomes_carry_metadata(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        merged, outcomes = run_partitions_parallel(
            spaces, LinkSet(), pair.ground_truth,
            AlexConfig(episode_size=10, seed=5),
            episode_size=10, max_episodes=3, max_workers=1,
        )
        assert {outcome.name for outcome in outcomes} == {"partition-0", "partition-1"}
        for outcome in outcomes:
            assert outcome.episodes_run <= 3
            assert outcome.elapsed_seconds >= 0.0

    def test_empty_spaces_rejected(self, pair):
        with pytest.raises(ConfigError):
            run_partitions_parallel(
                [], LinkSet(), pair.ground_truth,
                AlexConfig(episode_size=10), episode_size=10, max_episodes=1,
            )


class TestPartitionRouting:
    def test_links_route_identically_through_both_entry_points(self, pair):
        """PartitionedAlex (at construction and on feedback) and
        run_partitions_parallel send every link to the same partition:
        the first space containing it, else the left-entity hash."""
        spaces = build_partitioned_spaces(pair.left, pair.right, 3)
        inside = [min(space.links()) for space in spaces]
        outside = [
            Link(URIRef(f"http://nowhere/l{i}"), URIRef(f"http://nowhere/r{i}"))
            for i in range(12)
        ]
        assert not any(link in space for link in outside for space in spaces)
        links = inside + outside
        expected = [partition_index(spaces, link) for link in links]
        assert expected[:3] == [0, 1, 2]
        assert len(set(expected[3:])) > 1  # the hash spreads the outsiders
        config = AlexConfig(episode_size=1, seed=5)

        seeded = PartitionedAlex(spaces, LinkSet(links), config)
        for link, index in zip(links, expected):
            holders = [i for i, e in enumerate(seeded.engines) if link in e.candidates]
            assert holders == [index]
        empty = PartitionedAlex(spaces, LinkSet(), config)
        assert [empty.engines.index(empty.engine_for(link)) for link in links] == expected

        _, outcomes = run_partitions_parallel(
            spaces, LinkSet(links), LinkSet(links), config,
            episode_size=1, max_episodes=1, max_workers=1,
        )
        for link, index in zip(links, expected):
            holders = [i for i, o in enumerate(outcomes) if link in o.candidates]
            assert holders == [index]
