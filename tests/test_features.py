"""Unit tests for feature sets, the feature space, blocking, and partitioning."""

import pytest

from repro.errors import FeatureSpaceError
from repro.features import (
    FeatureSet,
    FeatureSpace,
    TokenBlocker,
    blocked_pairs,
    build_feature_set,
    build_partitioned_spaces,
    entity_tokens,
    equal_size_partition,
    similarity_matrix,
)
from repro.links import Link
from repro.rdf import turtle
from repro.rdf.entity import Entity, entities_of
from repro.rdf.terms import URIRef


def ont(side: str, name: str) -> URIRef:
    return URIRef(f"http://{side}/ont/{name}")


@pytest.fixture()
def left_graph():
    return turtle.load(
        """
        @prefix r: <http://a/res/> .
        @prefix o: <http://a/ont/> .
        r:lebron o:label "LeBron James" ; o:birth 1984 ; o:team "Miami Heat" .
        r:durant o:label "Kevin Durant" ; o:birth 1988 .
        r:noise  o:label "Zqx Wvu" .
        """
    )


@pytest.fixture()
def right_graph():
    return turtle.load(
        """
        @prefix r: <http://b/res/> .
        @prefix o: <http://b/ont/> .
        r:james o:name "Lebron James" ; o:born 1984 .
        r:kd    o:name "K. Durant" ; o:born 1988 .
        """
    )


def entity_of(graph, uri):
    return Entity.from_graph(graph, URIRef(uri))


class TestFeatureSet:
    def test_matrix_thresholded(self, left_graph, right_graph):
        lebron = entity_of(left_graph, "http://a/res/lebron")
        james = entity_of(right_graph, "http://b/res/james")
        matrix = similarity_matrix(lebron, james, theta=0.3)
        assert matrix[(ont("a", "label"), ont("b", "name"))] == 1.0
        assert matrix[(ont("a", "birth"), ont("b", "born"))] == 1.0
        assert all(score >= 0.3 for score in matrix.values())

    def test_max_per_row_when_left_bigger(self, left_graph, right_graph):
        lebron = entity_of(left_graph, "http://a/res/lebron")  # 3 attrs
        james = entity_of(right_graph, "http://b/res/james")  # 2 attrs
        fs = build_feature_set(lebron, james)
        # one entry per left predicate that matched anything
        left_preds = {key[0] for key in fs}
        assert len(left_preds) == len(fs)

    def test_max_per_column_when_right_bigger(self, left_graph, right_graph):
        durant = entity_of(left_graph, "http://a/res/durant")  # 2 attrs
        james = entity_of(right_graph, "http://b/res/james")  # 2 attrs (tie -> column rule)
        fs = build_feature_set(durant, james)
        right_preds = {key[1] for key in fs}
        assert len(right_preds) == len(fs)

    def test_empty_pair_returns_none(self, left_graph, right_graph):
        noise = entity_of(left_graph, "http://a/res/noise")
        kd = entity_of(right_graph, "http://b/res/kd")
        assert build_feature_set(noise, kd, theta=0.9) is None

    def test_best_feature_deterministic(self, left_graph, right_graph):
        lebron = entity_of(left_graph, "http://a/res/lebron")
        james = entity_of(right_graph, "http://b/res/james")
        fs = build_feature_set(lebron, james)
        assert fs.best_feature() == fs.best_feature()

    def test_score_out_of_range_rejected(self):
        with pytest.raises(FeatureSpaceError):
            FeatureSet({(ont("a", "x"), ont("b", "y")): 1.5})

    def test_hash_and_equality(self, left_graph, right_graph):
        lebron = entity_of(left_graph, "http://a/res/lebron")
        james = entity_of(right_graph, "http://b/res/james")
        fs1 = build_feature_set(lebron, james)
        fs2 = build_feature_set(lebron, james)
        assert fs1 == fs2 and hash(fs1) == hash(fs2)


class TestBlocking:
    def test_entity_tokens_include_literals_and_uri(self, left_graph):
        lebron = entity_of(left_graph, "http://a/res/lebron")
        tokens = entity_tokens(lebron)
        assert "lebron" in tokens and "james" in tokens and "1984" in tokens

    def test_blocked_pairs_share_tokens(self, left_graph, right_graph):
        pairs = list(blocked_pairs(entities_of(left_graph), entities_of(right_graph)))
        pair_names = {(l.uri.local_name, r.uri.local_name) for l, r in pairs}
        assert ("lebron", "james") in pair_names
        assert ("noise", "james") not in pair_names

    def test_stop_tokens_dropped(self):
        graph = turtle.load(
            "@prefix o: <http://x/ont/> .\n"
            + "\n".join(
                f'<http://x/res/e{i}> o:tag "common" ; o:name "unique{i}" .'
                for i in range(20)
            )
        )
        blocker = TokenBlocker(entities_of(graph), stop_fraction=0.2)
        probe = next(iter(entities_of(graph)))
        # 'common' is shared by all 20 entities -> must not pair everything
        assert len(blocker.candidates(probe)) < 20


class TestFeatureSpace:
    @pytest.fixture()
    def space(self, left_graph, right_graph):
        return FeatureSpace.build(left_graph, right_graph)

    def test_contains_correct_pairs(self, space):
        assert Link(URIRef("http://a/res/lebron"), URIRef("http://b/res/james")) in space
        assert Link(URIRef("http://a/res/durant"), URIRef("http://b/res/kd")) in space

    def test_feature_set_lookup(self, space):
        link = Link(URIRef("http://a/res/lebron"), URIRef("http://b/res/james"))
        fs = space.feature_set(link)
        assert fs is not None and fs[(ont("a", "label"), ont("b", "name"))] == 1.0

    def test_explore_range_query(self, space):
        key = (ont("a", "label"), ont("b", "name"))
        hits = space.explore(key, center=1.0, step=0.05)
        assert Link(URIRef("http://a/res/lebron"), URIRef("http://b/res/james")) in hits
        assert all(abs(space.feature_set(l)[key] - 1.0) <= 0.05 for l in hits)

    def test_explore_unknown_key(self, space):
        assert space.explore((ont("a", "zz"), ont("b", "zz")), 0.5, 0.1) == []

    def test_explore_requires_freeze(self, left_graph, right_graph):
        space = FeatureSpace()
        with pytest.raises(FeatureSpaceError):
            space.explore((ont("a", "label"), ont("b", "name")), 0.5, 0.1)

    def test_frozen_space_rejects_adds(self, space, left_graph):
        entity = entity_of(left_graph, "http://a/res/lebron")
        with pytest.raises(FeatureSpaceError):
            space.add_pair(entity, entity)

    def test_total_pairs_considered(self, space):
        assert space.total_pairs_considered == 3 * 2

    def test_invalid_theta(self):
        with pytest.raises(FeatureSpaceError):
            FeatureSpace(theta=1.5)

    def test_no_blocking_superset(self, left_graph, right_graph):
        blocked = FeatureSpace.build(left_graph, right_graph, use_blocking=True)
        naive = FeatureSpace.build(left_graph, right_graph, use_blocking=False)
        assert set(blocked.links()) <= set(naive.links())


class TestPartitioning:
    def test_round_robin_deterministic(self, left_graph):
        entities = list(entities_of(left_graph))
        parts1 = equal_size_partition(entities, 2)
        parts2 = equal_size_partition(list(reversed(entities)), 2)
        assert [[e.uri for e in p] for p in parts1] == [[e.uri for e in p] for p in parts2]

    def test_partition_sizes_balanced(self, left_graph):
        entities = list(entities_of(left_graph))
        parts = equal_size_partition(entities, 2)
        assert abs(len(parts[0]) - len(parts[1])) <= 1

    def test_invalid_partition_count(self, left_graph):
        with pytest.raises(FeatureSpaceError):
            equal_size_partition(list(entities_of(left_graph)), 0)

    def test_partitioned_spaces_cover_all_links(self, left_graph, right_graph):
        whole = FeatureSpace.build(left_graph, right_graph)
        parts = build_partitioned_spaces(left_graph, right_graph, 2)
        covered = {link for space in parts for link in space.links()}
        assert covered == set(whole.links())

    def test_partitions_disjoint(self, left_graph, right_graph):
        parts = build_partitioned_spaces(left_graph, right_graph, 2)
        seen = set()
        for space in parts:
            links = set(space.links())
            assert not (links & seen)
            seen |= links
