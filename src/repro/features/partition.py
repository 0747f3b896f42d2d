"""Equal-size partitioning of the link search space (Section 6.2).

The larger dataset is split round-robin into *n* partitions; feature sets
are generated between each partition and the whole smaller dataset. The
partitions are fully independent, so ALEX instances can explore them in
parallel without communication.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import FeatureSpaceError
from repro.features.feature_set import DEFAULT_THETA
from repro.features.space import FeatureSpace
from repro.rdf.entity import Entity, entities_of
from repro.rdf.graph import Graph


def equal_size_partition(entities: Sequence[Entity], n_partitions: int) -> list[list[Entity]]:
    """Round-robin split: the i-th entity goes to partition ``i mod n``.

    Entities are first sorted by URI so the split is deterministic
    regardless of input order.
    """
    if n_partitions < 1:
        raise FeatureSpaceError(f"n_partitions must be >= 1, got {n_partitions}")
    ordered = sorted(entities, key=lambda e: str(e.uri))
    partitions: list[list[Entity]] = [[] for _ in range(n_partitions)]
    for index, entity in enumerate(ordered):
        partitions[index % n_partitions].append(entity)
    return partitions


def build_partitioned_spaces(
    left: Graph | Iterable[Entity],
    right: Graph | Iterable[Entity],
    n_partitions: int,
    theta: float = DEFAULT_THETA,
    use_blocking: bool = True,
) -> list[FeatureSpace]:
    """Partition the larger side and build one FeatureSpace per partition.

    Follows the paper: "we partition the larger data set and generate
    feature sets between each partition and all entities in the smaller
    data set". The returned spaces keep the Link orientation (left dataset
    first) regardless of which side was larger.
    """
    left_entities = list(entities_of(left) if isinstance(left, Graph) else left)
    right_entities = list(entities_of(right) if isinstance(right, Graph) else right)

    if len(left_entities) >= len(right_entities):
        partitions = equal_size_partition(left_entities, n_partitions)
        return [
            FeatureSpace.build(part, right_entities, theta, use_blocking)
            for part in partitions
            if part
        ]
    partitions = equal_size_partition(right_entities, n_partitions)
    return [
        FeatureSpace.build(left_entities, part, theta, use_blocking)
        for part in partitions
        if part
    ]
