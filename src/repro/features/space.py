"""The θ-filtered space of potential links with per-feature range indexes.

This is the environment ALEX explores (Sections 4.2 and 6.1). The space maps
every surviving entity pair to its feature set, and keeps for each feature
key a score-sorted index so an exploration action — "all links whose feature
``(p1, p2)`` scores within ``[v−δ, v+δ]``" — is two binary searches plus a
slice, independent of the space size.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from repro import obs
from repro.errors import FeatureSpaceError
from repro.features.blocking import blocked_pairs
from repro.features.feature_set import (
    DEFAULT_THETA,
    FeatureKey,
    FeatureSet,
    build_feature_set,
    build_feature_set_prepared,
)
from repro.links import Link
from repro.rdf.entity import Entity, entities_of
from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef
from repro.similarity.prepared import PreparedEntity, flush_similarity_stats, prepare_pairs

#: Version of the file :meth:`FeatureSpace.save` writes. Format 2 stores
#: links-only range indexes; format-1 files must be rebuilt.
SPACE_FILE_FORMAT = 2


class FeatureSpace:
    """All candidate pairs that pass θ, with fast per-feature range queries."""

    def __init__(self, theta: float = DEFAULT_THETA):
        if not (0.0 <= theta <= 1.0):
            raise FeatureSpaceError(f"theta must be in [0,1], got {theta}")
        self.theta = theta
        self._feature_sets: dict[Link, FeatureSet] = {}
        #: per-feature lists: unsorted (score, link) entries while the space
        #: is built; after freeze() the links alone, in score order, beside
        #: the parallel score arrays ``_scores_only`` that explore bisects.
        self._index: dict[FeatureKey, list] = {}
        self._scores_only: dict[FeatureKey, list[float]] = {}
        #: left URI → links, built at freeze time (fast links_of_left).
        self._by_left: dict[URIRef, list[Link]] = {}
        self._total_pairs_considered = 0
        self._frozen = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        left: Graph | Iterable[Entity],
        right: Graph | Iterable[Entity],
        theta: float = DEFAULT_THETA,
        use_blocking: bool = True,
        fast: bool = True,
    ) -> "FeatureSpace":
        """Build the space between two datasets.

        ``use_blocking=False`` scores *every* pair (the naive quadratic
        construction of Section 6.1, kept for the filtering experiment and
        the blocking ablation). ``fast=True`` (the default) routes scoring
        through the prepared-entity layer — normalized forms, token sets and
        typed values computed once per entity, a bounded memo cache on
        value-pair scores, and θ-aware upper bounds; admitted links and
        scores are bit-identical to ``fast=False`` (the parity test in
        ``tests/test_perf_fastpath.py`` enforces this).
        """
        left_entities = list(entities_of(left) if isinstance(left, Graph) else left)
        right_entities = list(entities_of(right) if isinstance(right, Graph) else right)
        space = cls(theta)
        if use_blocking:
            with obs.timer("space.build.block"):
                token_map: dict[Entity, set[str]] = {}
                pairs: Iterable[tuple[Entity, Entity]] = list(
                    blocked_pairs(left_entities, right_entities, token_map=token_map)
                )
        else:
            # the cross product stays lazy — materializing it would cost
            # O(|D1|·|D2|) memory just to attribute ~zero time to blocking
            pairs = ((l, r) for l in left_entities for r in right_entities)
        with obs.timer("space.build.score"):
            if fast:
                for prepared_left, prepared_right in prepare_pairs(pairs):
                    space.add_prepared_pair(prepared_left, prepared_right)
                flush_similarity_stats()
            else:
                for left_entity, right_entity in pairs:
                    space.add_pair(left_entity, right_entity)
        space._total_pairs_considered = len(left_entities) * len(right_entities)
        with obs.timer("space.build.freeze"):
            space.freeze()
        return space

    def add_pair(self, left_entity: Entity, right_entity: Entity) -> FeatureSet | None:
        """Score one pair and admit it when any feature passes θ."""
        link = self._admissible_link(left_entity.uri, right_entity.uri)
        if not isinstance(link, Link):
            return link
        feature_set = build_feature_set(left_entity, right_entity, self.theta)
        return self._admit(link, feature_set)

    def add_prepared_pair(
        self, prepared_left: PreparedEntity, prepared_right: PreparedEntity
    ) -> FeatureSet | None:
        """Fast-path :meth:`add_pair` over prepared entities."""
        link = self._admissible_link(prepared_left.uri, prepared_right.uri)
        if not isinstance(link, Link):
            return link
        feature_set = build_feature_set_prepared(prepared_left, prepared_right, self.theta)
        return self._admit(link, feature_set)

    def _admissible_link(self, left_uri, right_uri) -> "Link | FeatureSet | None":
        """Shared admission preamble: the new link to score, an existing
        feature set for an already-seen pair, or None for non-URI subjects."""
        if self._frozen:
            raise FeatureSpaceError("cannot add pairs to a frozen FeatureSpace")
        if not isinstance(left_uri, URIRef) or not isinstance(right_uri, URIRef):
            return None
        link = Link(left_uri, right_uri)
        existing = self._feature_sets.get(link)
        if existing is not None:
            return existing
        # scanned vs admitted makes the θ-filter win measurable
        obs.inc("space.pairs.scanned")
        return link

    def _admit(self, link: Link, feature_set: FeatureSet | None) -> FeatureSet | None:
        if feature_set is None:
            return None
        obs.inc("space.pairs.admitted")
        self._feature_sets[link] = feature_set
        for key, score in feature_set.items():
            self._index.setdefault(key, []).append((score, link))
        return feature_set

    def freeze(self) -> None:
        """Sort the range indexes; the space becomes read-only.

        Each feature's ``(score, link)`` entries split into a score array
        and a links-only list in the same order, so :meth:`explore` returns
        a plain slice. Freezing a frozen space does nothing.
        """
        if self._frozen:
            return
        links_only: dict[FeatureKey, list[Link]] = {}
        scores_only: dict[FeatureKey, list[float]] = {}
        for key, entries in self._index.items():
            entries.sort(key=lambda entry: (entry[0], entry[1].left.value, entry[1].right.value))
            scores_only[key] = [score for score, _ in entries]
            links_only[key] = [link for _, link in entries]
        self._index = links_only
        self._scores_only = scores_only
        by_left: dict[URIRef, list[Link]] = {}
        for link in self._feature_sets:
            by_left.setdefault(link.left, []).append(link)
        self._by_left = by_left
        self._frozen = True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def feature_set(self, link: Link) -> FeatureSet | None:
        """The feature set of a link, or None when the pair is not in the
        (filtered) space."""
        return self._feature_sets.get(link)

    def explore(self, key: FeatureKey, center: float, step: float) -> list[Link]:
        """All links whose ``key`` feature scores within ``[center−step,
        center+step]`` — the action of Section 4.2."""
        if not self._frozen:
            raise FeatureSpaceError("freeze() the space before exploring")
        obs.inc("space.explore.calls")
        links = self._index.get(key)
        if not links:
            return []
        scores = self._scores_only[key]
        low = bisect.bisect_left(scores, center - step)
        high = bisect.bisect_right(scores, center + step)
        if high > low:
            obs.inc("space.explore.candidates", high - low)
        return links[low:high]

    def feature_keys(self) -> list[FeatureKey]:
        return sorted(self._index, key=lambda k: (k[0].value, k[1].value))

    def links(self) -> Iterator[Link]:
        return iter(self._feature_sets)

    def links_of_left(self, left: URIRef) -> list[Link]:
        if self._frozen:
            return list(self._by_left.get(left, ()))
        return [link for link in self._feature_sets if link.left == left]

    @property
    def size(self) -> int:
        """Number of pairs surviving the θ filter."""
        return len(self._feature_sets)

    @property
    def total_pairs_considered(self) -> int:
        """|D1| × |D2| — the unfiltered space size (Figure 5a baseline)."""
        return self._total_pairs_considered

    def __contains__(self, link: Link) -> bool:
        return link in self._feature_sets

    def __len__(self) -> int:
        return len(self._feature_sets)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Write the (frozen) space to a file; loading skips the rebuild.

        Space construction dominates pipeline start-up on larger datasets;
        a deployment builds once and reloads across restarts (the engine
        state has its own JSON persistence in :mod:`repro.core.persistence`).
        """
        import pickle

        if not self._frozen:
            raise FeatureSpaceError("freeze() the space before saving")
        with open(path, "wb") as handle:
            pickle.dump({"format": SPACE_FILE_FORMAT, "space": self}, handle)

    @classmethod
    def load(cls, path: str) -> "FeatureSpace":
        """Read a space written by :meth:`save`."""
        import pickle

        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if not isinstance(payload, dict) or "format" not in payload:
            raise FeatureSpaceError(f"unrecognized feature-space file: {path!r}")
        if payload["format"] != SPACE_FILE_FORMAT:
            # a format-1 space indexes (score, link) pairs, which explore()
            # would hand out as links
            raise FeatureSpaceError(
                f"feature-space file {path!r} has format {payload['format']!r}, "
                f"this version reads format {SPACE_FILE_FORMAT}: rebuild the "
                "space with FeatureSpace.build and save it again"
            )
        space = payload["space"]
        if not isinstance(space, cls):
            raise FeatureSpaceError(f"file does not contain a FeatureSpace: {path!r}")
        return space

    def __repr__(self):
        return (
            f"<FeatureSpace θ={self.theta}: {len(self._feature_sets)} pairs, "
            f"{len(self._index)} feature keys>"
        )
