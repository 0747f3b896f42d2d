"""Feature-space construction: naive vs prepared fast path.

The pytest-benchmark counterpart of ``repro bench``: one timed run of the
medium bundle through each build mode, with the parity invariant asserted on
every run (the fast paths must admit exactly the naive links with exactly
the naive scores). The obs snapshot attached by ``run_once`` carries the
``space.build.*`` phase timers and ``similarity.cache.*`` counters, so saved
benchmark JSON shows where construction time goes and how well the caches
hit — not just the total.
"""

import pytest

from repro.bench import BUNDLE_SPECS, parity_mismatches
from repro.datasets import generate_pair
from repro.features import FeatureSpace
from repro.rdf.entity import entities_of
from repro.similarity.prepared import clear_caches

_MEDIUM = BUNDLE_SPECS[1]


@pytest.fixture(scope="module")
def medium_pair():
    pair = generate_pair(_MEDIUM)
    return list(entities_of(pair.left)), list(entities_of(pair.right))


@pytest.fixture(scope="module")
def naive_space(medium_pair):
    left, right = medium_pair
    return FeatureSpace.build(left, right, fast=False)


def test_space_build_naive(run_once, medium_pair):
    left, right = medium_pair
    space = run_once(lambda: FeatureSpace.build(left, right, fast=False))
    assert space.size > 0


def test_space_build_fast(run_once, medium_pair, naive_space):
    left, right = medium_pair
    clear_caches()
    space = run_once(lambda: FeatureSpace.build(left, right, fast=True))
    assert parity_mismatches(naive_space, space) == 0
