"""Feature sets: the state representation of Section 4.1.

A *feature* is a pair of predicates ``(p1, p2)`` — one from each dataset —
and its *value* is the similarity score of the corresponding attribute
values. The *state feature set* of a link keeps, for every predicate of the
entity with more attributes, its best-matching predicate on the other side
(the "maximum value for each row … or each column" rule), after discarding
scores below the threshold θ.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import FeatureSpaceError
from repro.rdf.entity import Entity
from repro.rdf.terms import URIRef
from repro.similarity.generic import best_object_similarity
from repro.similarity.prepared import (
    PreparedEntity,
    _best_cache,
    _best_uncached,
    _stats,
    best_prepared_similarity,
)

#: A feature key: (predicate from dataset 1, predicate from dataset 2).
FeatureKey = tuple[URIRef, URIRef]

#: Default feature-score threshold θ (paper Section 6.1).
DEFAULT_THETA = 0.3


class FeatureSet(Mapping[FeatureKey, float]):
    """An immutable mapping from feature keys to similarity scores in (0, 1]."""

    __slots__ = ("_features", "_hash")

    def __init__(self, features: Mapping[FeatureKey, float]):
        for key, score in features.items():
            if not (0.0 <= score <= 1.0):
                raise FeatureSpaceError(f"feature score out of range for {key}: {score}")
        self._features = dict(features)
        self._hash: int | None = None

    def __reduce__(self):  # slots + lazy hash need explicit pickling
        return (FeatureSet, (self._features,))

    def __getitem__(self, key: FeatureKey) -> float:
        return self._features[key]

    def __iter__(self) -> Iterator[FeatureKey]:
        return iter(self._features)

    def __len__(self) -> int:
        return len(self._features)

    def keys_sorted(self) -> list[FeatureKey]:
        """Feature keys in deterministic order (for reproducible policies)."""
        return sorted(self._features, key=lambda k: (k[0].value, k[1].value))

    def best_feature(self) -> FeatureKey | None:
        """The highest-scoring feature, ties broken deterministically."""
        if not self._features:
            return None
        return max(
            self._features,
            key=lambda k: (self._features[k], k[0].value, k[1].value),
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._features.items()))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, FeatureSet):
            return NotImplemented
        return self._features == other._features

    def __repr__(self):
        parts = ", ".join(
            f"({k[0].local_name},{k[1].local_name})={v:.2f}"
            for k, v in sorted(self._features.items(), key=lambda kv: -kv[1])
        )
        return f"FeatureSet({parts})"


def similarity_matrix(entity1: Entity, entity2: Entity, theta: float = DEFAULT_THETA) -> dict[FeatureKey, float]:
    """All predicate-pair scores ≥ θ between two entities.

    An element is ``((p1, p2), score)`` with ``score = sim(o1, o2)`` taken as
    the best pairing of the attributes' (possibly multiple) objects.
    """
    matrix: dict[FeatureKey, float] = {}
    for p1, objects1 in entity1.attributes.items():
        for p2, objects2 in entity2.attributes.items():
            score = best_object_similarity(objects1, objects2)
            if score >= theta:
                matrix[(p1, p2)] = score
    return matrix


def _reduce_matrix(
    matrix: dict[FeatureKey, float], arity1: int, arity2: int
) -> dict[FeatureKey, float]:
    """The paper's row/column max reduction, shared by both build paths."""
    if arity1 > arity2:
        best_for_row: dict[URIRef, tuple[float, URIRef]] = {}
        for (p1, p2), score in matrix.items():
            current = best_for_row.get(p1)
            if current is None or score > current[0] or (
                score == current[0] and (p2.value < current[1].value)
            ):
                best_for_row[p1] = (score, p2)
        return {(p1, p2): score for p1, (score, p2) in best_for_row.items()}
    best_for_col: dict[URIRef, tuple[float, URIRef]] = {}
    for (p1, p2), score in matrix.items():
        current = best_for_col.get(p2)
        if current is None or score > current[0] or (
            score == current[0] and (p1.value < current[1].value)
        ):
            best_for_col[p2] = (score, p1)
    return {(p1, p2): score for p2, (score, p1) in best_for_col.items()}


def build_feature_set(
    entity1: Entity, entity2: Entity, theta: float = DEFAULT_THETA
) -> FeatureSet | None:
    """State feature set of the pair (entity1, entity2), or None when empty.

    Follows the paper's rule: with *n* predicates on the first entity and
    *m* on the second, keep the maximum per row (each ``p1``) when n > m,
    else the maximum per column (each ``p2``). Pairs with no feature
    passing θ are dropped from the space entirely (Section 6.1).
    """
    matrix = similarity_matrix(entity1, entity2, theta)
    if not matrix:
        return None
    return FeatureSet(_reduce_matrix(matrix, entity1.arity, entity2.arity))


def similarity_matrix_prepared(
    prepared1: PreparedEntity, prepared2: PreparedEntity, theta: float = DEFAULT_THETA
) -> dict[FeatureKey, float]:
    """Fast-path :func:`similarity_matrix` over prepared entities.

    Every entry ≥ θ carries exactly the score the naive path computes; the
    θ-aware bounds inside :func:`best_prepared_similarity` only elide work
    whose result could not reach θ (and would be dropped here anyway).
    Two consumers share it: the space build at θ, and PARIS's evidence
    collection at τ — whose queries the θ-agnostic attribute-pair memo
    answers from the build's entries whenever τ ≥ θ.
    """
    # The memo probe of best_prepared_similarity is inlined here: with ~20
    # attribute pairs per entity pair and a ~75% memo hit rate the call
    # overhead alone would dominate the cache's savings. A negative entry
    # (-θ') means "below θ'": a hit iff θ' ≤ θ, and then never admitted.
    matrix: dict[FeatureKey, float] = {}
    cache_get = _best_cache.get
    items2 = prepared2.attr_items
    hits = 0
    for p1, objects1 in prepared1.attr_items:
        for p2, objects2 in items2:
            key = (objects1, objects2)
            score = cache_get(key)
            if score is None or -score > theta:
                score = _best_uncached(objects1, objects2, theta, key)
            else:
                hits += 1
            if score >= theta:
                matrix[(p1, p2)] = score
    _stats["attr_hits"] += hits
    return matrix


def build_feature_set_prepared(
    prepared1: PreparedEntity, prepared2: PreparedEntity, theta: float = DEFAULT_THETA
) -> FeatureSet | None:
    """Fast-path :func:`build_feature_set`; admitted features bit-identical."""
    matrix = similarity_matrix_prepared(prepared1, prepared2, theta)
    if not matrix:
        return None
    return FeatureSet(_reduce_matrix(matrix, prepared1.arity, prepared2.arity))
