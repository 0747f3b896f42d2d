"""The θ-filtered space of potential links with per-feature range indexes.

This is the environment ALEX explores (Sections 4.2 and 6.1). The space maps
every surviving entity pair to its feature set, and keeps for each feature
key a score-sorted index so an exploration action — "all links whose feature
``(p1, p2)`` scores within ``[v−δ, v+δ]``" — is two binary searches plus a
slice, independent of the space size.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Mapping

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
from repro.similarity.prepared import (
    PreparedEntity,
    WireReader,
    WireWriter,
    flush_similarity_stats,
    prepare_pairs,
)


class FeatureSpace:
    """All candidate pairs that pass θ, with fast per-feature range queries."""

    def __init__(self, theta: float = DEFAULT_THETA):
        if not (0.0 <= theta <= 1.0):
            raise FeatureSpaceError(f"theta must be in [0,1], got {theta}")
        self.theta = theta
        self._feature_sets: dict[Link, FeatureSet] = {}
        #: per-feature sorted lists of (score, link); parallel score arrays
        #: for bisect.
        self._index: dict[FeatureKey, list[tuple[float, Link]]] = {}
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
        workers: int | None = 1,
    ) -> "FeatureSpace":
        """Build the space between two datasets.

        ``use_blocking=False`` scores *every* pair (the naive quadratic
        construction of Section 6.1, kept for the filtering experiment and
        the blocking ablation). ``fast=True`` (the default) routes scoring
        through the prepared-entity layer — normalized forms, token sets and
        typed values computed once per entity, a bounded memo cache on
        value-pair scores, and θ-aware upper bounds; admitted links and
        scores are bit-identical to ``fast=False`` (the parity test in
        ``tests/test_perf_fastpath.py`` enforces this). ``workers=N`` (N>1)
        partitions the left entities across processes via
        :func:`repro.core.parallel_mp.build_space_parallel` and merges the
        per-worker spaces and obs snapshots.
        """
        left_entities = list(entities_of(left) if isinstance(left, Graph) else left)
        right_entities = list(entities_of(right) if isinstance(right, Graph) else right)
        if workers is not None and workers > 1:
            from repro.core.parallel_mp import build_space_parallel

            return build_space_parallel(
                left_entities,
                right_entities,
                theta=theta,
                use_blocking=use_blocking,
                fast=fast,
                workers=workers,
            )
        return cls._build_single_process(left_entities, right_entities, theta, use_blocking, fast)

    @classmethod
    def _build_single_process(
        cls,
        left_entities: list[Entity],
        right_entities: list[Entity],
        theta: float,
        use_blocking: bool,
        fast: bool,
        freeze: bool = True,
    ) -> "FeatureSpace":
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
        if freeze:
            with obs.timer("space.build.freeze"):
                space.freeze()
        # freeze=False: a pool worker building one partition delta — the
        # parent freezes the merged space once, so sorting here is waste
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
        """Sort the range indexes; the space becomes read-only."""
        for key, entries in self._index.items():
            entries.sort(key=lambda entry: (entry[0], entry[1].left.value, entry[1].right.value))
            self._scores_only[key] = [score for score, _ in entries]
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
        entries = self._index.get(key)
        if not entries:
            return []
        scores = self._scores_only[key]
        low = bisect.bisect_left(scores, center - step)
        high = bisect.bisect_right(scores, center + step)
        if high > low:
            obs.inc("space.explore.candidates", high - low)
        return [link for _, link in entries[low:high]]

    def feature_keys(self) -> list[FeatureKey]:
        return sorted(self._index, key=lambda k: (k[0].value, k[1].value))

    def links(self) -> Iterator[Link]:
        return iter(self._feature_sets)

    def links_of_left(self, left: URIRef) -> list[Link]:
        # getattr: spaces pickled before the index existed reload fine
        by_left = getattr(self, "_by_left", None)
        if self._frozen and by_left is not None:
            return list(by_left.get(left, ()))
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
            pickle.dump({"format": 1, "space": self}, handle)

    @classmethod
    def load(cls, path: str) -> "FeatureSpace":
        """Read a space written by :meth:`save`."""
        import pickle

        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if not isinstance(payload, dict) or payload.get("format") != 1:
            raise FeatureSpaceError(f"unrecognized feature-space file: {path!r}")
        space = payload["space"]
        if not isinstance(space, cls):
            raise FeatureSpaceError(f"file does not contain a FeatureSpace: {path!r}")
        return space

    def __repr__(self):
        return (
            f"<FeatureSpace θ={self.theta}: {len(self._feature_sets)} pairs, "
            f"{len(self._index)} feature keys>"
        )


def merge_spaces(spaces: Iterable[FeatureSpace]) -> FeatureSpace:
    """Union of partition spaces (used to report whole-dataset metrics)."""
    spaces = list(spaces)
    if not spaces:
        raise FeatureSpaceError("cannot merge zero spaces")
    theta = spaces[0].theta
    merged = FeatureSpace(theta)
    for space in spaces:
        if space.theta != theta:
            raise FeatureSpaceError("cannot merge spaces with different theta")
        for link, feature_set in space._feature_sets.items():
            if link not in merged._feature_sets:
                merged._feature_sets[link] = feature_set
                for key, score in feature_set.items():
                    merged._index.setdefault(key, []).append((score, link))
    merged._total_pairs_considered = sum(s.total_pairs_considered for s in spaces)
    merged.freeze()
    return merged


# --------------------------------------------------------------------- #
# Space deltas on the wire
# --------------------------------------------------------------------- #


def encode_space_delta(space: FeatureSpace) -> bytes:
    """Dictionary-encode a partition's scored space for the trip home.

    A pool worker returns its partition result in the same flat-array wire
    format partitions arrive in (see :mod:`repro.similarity.prepared`):
    every link endpoint and predicate ships as a dictionary ID, every score
    as one f64 — scores survive the round trip bit-identically, which the
    parity tests rely on. Works on unfrozen spaces; the parent merges the
    decoded deltas and freezes once.
    """
    writer = WireWriter()
    writer.floats.append(space.theta)
    ints = writer.ints
    total = space._total_pairs_considered
    ints.append(total >> 32)
    ints.append(total & 0xFFFFFFFF)
    ints.append(len(space._feature_sets))
    for link, feature_set in space._feature_sets.items():
        ints.append(writer.term_id(link.left))
        ints.append(writer.term_id(link.right))
        ints.append(len(feature_set))
        for (p1, p2), score in feature_set.items():
            ints.append(writer.term_id(p1))
            ints.append(writer.term_id(p2))
            writer.floats.append(score)
    return writer.to_bytes()


def decode_space_delta(blob: bytes) -> FeatureSpace:
    """Inverse of :func:`encode_space_delta`; the space comes back unfrozen
    (feed it to :func:`merge_spaces`, which freezes the union)."""
    reader = WireReader(blob)
    theta = reader.read_float()
    space = FeatureSpace(theta)
    space._total_pairs_considered = (reader.read_int() << 32) | reader.read_int()
    for _ in range(reader.read_int()):
        left = reader.term(reader.read_int())
        right = reader.term(reader.read_int())
        link = Link(left, right)
        features: dict[FeatureKey, float] = {}
        for _ in range(reader.read_int()):
            p1 = reader.term(reader.read_int())
            p2 = reader.term(reader.read_int())
            features[(p1, p2)] = reader.read_float()
        feature_set = FeatureSet(features)
        space._feature_sets[link] = feature_set
        for key, score in feature_set.items():
            space._index.setdefault(key, []).append((score, link))
    return space
