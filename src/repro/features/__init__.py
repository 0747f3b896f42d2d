"""Feature sets, the θ-filtered link space, blocking, and partitioning."""

from repro.features.blocking import TokenBlocker, blocked_pairs, entity_tokens
from repro.features.feature_set import (
    DEFAULT_THETA,
    FeatureKey,
    FeatureSet,
    build_feature_set,
    build_feature_set_prepared,
    similarity_matrix,
    similarity_matrix_prepared,
)
from repro.features.partition import build_partitioned_spaces, equal_size_partition
from repro.features.space import FeatureSpace

__all__ = [
    "DEFAULT_THETA",
    "FeatureKey",
    "FeatureSet",
    "FeatureSpace",
    "TokenBlocker",
    "blocked_pairs",
    "build_feature_set",
    "build_feature_set_prepared",
    "build_partitioned_spaces",
    "entity_tokens",
    "equal_size_partition",
    "similarity_matrix",
    "similarity_matrix_prepared",
]
