"""Tests for dataset bundles and feature-space persistence."""

import pickle

import pytest

from repro.datasets import load_pair
from repro.datasets.bundle import load_bundle, save_bundle
from repro.errors import DatasetError, FeatureSpaceError
from repro.features import FeatureSpace
from repro.rdf.terms import BNode, Literal, URIRef


@pytest.fixture(scope="module")
def pair():
    return load_pair("opencyc_nba_nytimes")


class TestBundles:
    def test_round_trip_preserves_data(self, pair, tmp_path):
        directory = str(tmp_path / "bundle")
        save_bundle(pair, directory)
        loaded = load_bundle(directory)
        assert set(loaded.left.triples()) == set(pair.left.triples())
        assert set(loaded.right.triples()) == set(pair.right.triples())
        assert loaded.ground_truth == pair.ground_truth
        assert loaded.spec.name == pair.spec.name
        assert loaded.left_ontology.base == pair.left_ontology.base

    def test_loaded_bundle_runs_pipeline(self, pair, tmp_path):
        from repro.evaluation import evaluate_links
        from repro.paris import paris_links

        directory = str(tmp_path / "bundle")
        save_bundle(pair, directory)
        loaded = load_bundle(directory)
        links = paris_links(loaded.left, loaded.right, 0.8)
        quality = evaluate_links(links, loaded.ground_truth)
        assert quality.f_measure > 0.5

    def test_missing_metadata_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_bundle(str(tmp_path))

    def test_bad_format_rejected(self, pair, tmp_path):
        directory = str(tmp_path / "bundle")
        save_bundle(pair, directory)
        import json, os

        meta_path = os.path.join(directory, "pair.json")
        metadata = json.load(open(meta_path))
        metadata["format"] = 99
        json.dump(metadata, open(meta_path, "w"))
        with pytest.raises(DatasetError):
            load_bundle(directory)


class TestFeatureSpacePersistence:
    def test_save_load_round_trip(self, pair, tmp_path):
        space = FeatureSpace.build(pair.left, pair.right)
        path = str(tmp_path / "space.bin")
        space.save(path)
        loaded = FeatureSpace.load(path)
        assert set(loaded.links()) == set(space.links())
        assert loaded.theta == space.theta
        some_link = next(iter(space.links()))
        assert loaded.feature_set(some_link) == space.feature_set(some_link)

    def test_loaded_space_explorable(self, pair, tmp_path):
        space = FeatureSpace.build(pair.left, pair.right)
        path = str(tmp_path / "space.bin")
        space.save(path)
        loaded = FeatureSpace.load(path)
        key = loaded.feature_keys()[0]
        assert loaded.explore(key, 0.9, 0.1) == space.explore(key, 0.9, 0.1)

    def test_unfrozen_space_not_savable(self, tmp_path):
        with pytest.raises(FeatureSpaceError):
            FeatureSpace().save(str(tmp_path / "x.bin"))

    def test_garbage_file_rejected(self, tmp_path):
        import pickle

        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as handle:
            pickle.dump({"nope": True}, handle)
        with pytest.raises(FeatureSpaceError):
            FeatureSpace.load(path)

    def test_format_1_file_rejected_with_rebuild_hint(self, pair, tmp_path):
        import pickle

        # a format-1 file held a space whose range index was (score, link)
        # pairs; loading it must fail rather than explore into tuples
        space = FeatureSpace.build(pair.left, pair.right)
        space._index = {
            key: list(zip(space._scores_only[key], links))
            for key, links in space._index.items()
        }
        path = str(tmp_path / "old.bin")
        with open(path, "wb") as handle:
            pickle.dump({"format": 1, "space": space}, handle)
        with pytest.raises(FeatureSpaceError, match="rebuild"):
            FeatureSpace.load(path)

    def test_saved_file_is_format_2(self, pair, tmp_path):
        import pickle

        space = FeatureSpace.build(pair.left, pair.right)
        path = str(tmp_path / "space.bin")
        space.save(path)
        with open(path, "rb") as handle:
            assert pickle.load(handle)["format"] == 2

    def test_freeze_is_idempotent(self, pair):
        from repro.links import Link

        space = FeatureSpace.build(pair.left, pair.right)
        before = {key: space.explore(key, 0.75, 0.25) for key in space.feature_keys()}
        space.freeze()
        after = {key: space.explore(key, 0.75, 0.25) for key in space.feature_keys()}
        assert after == before
        assert all(isinstance(link, Link) for links in after.values() for link in links)
        assert any(after.values())

    def test_loaded_space_drives_engine(self, pair, tmp_path):
        from repro.core import AlexConfig, AlexEngine
        from repro.feedback import FeedbackSession, GroundTruthOracle
        from repro.paris import paris_links

        space = FeatureSpace.build(pair.left, pair.right)
        path = str(tmp_path / "space.bin")
        space.save(path)
        loaded = FeatureSpace.load(path)
        initial = paris_links(pair.left, pair.right, 0.8)
        engine = AlexEngine(loaded, initial, AlexConfig(episode_size=10, seed=1))
        session = FeedbackSession(engine, GroundTruthOracle(pair.ground_truth), seed=1)
        session.run_episode(10)
        assert engine.episodes_completed == 1


class TestPickling:
    """FeatureSpace.save pickles the space, its terms and its links."""

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
