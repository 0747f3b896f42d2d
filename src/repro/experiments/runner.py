"""Shared experiment machinery: scenario specs and the run loop.

A :class:`ScenarioSpec` captures everything one paper experiment needs: the
dataset pair, how the initial candidate links are produced (the automatic
linker's knobs), the ALEX configuration, and the feedback setup. The runner
builds the pieces, drives a :class:`~repro.feedback.session.FeedbackSession`
to convergence, and returns the per-episode quality curve.

Pair generation, feature-space construction, and PARIS runs are cached per
process: figures share datasets, and rebuilding a space costs seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.core.parallel import PartitionedAlex
from repro.datasets.catalog import load_pair
from repro.datasets.generator import DatasetPair
from repro.evaluation.metrics import Quality, evaluate_links, new_correct_links
from repro.evaluation.tracker import QualityTracker
from repro.features.partition import build_partitioned_spaces
from repro.features.space import FeatureSpace
from repro.feedback.oracle import GroundTruthOracle, NoisyOracle
from repro.feedback.session import FeedbackSession
from repro.links import LinkSet
from repro.paris.align import ParisAligner


@dataclass(frozen=True)
class LinkerSpec:
    """How the initial candidate links are produced (PARIS + threshold).

    The paper thresholds PARIS scores at 0.95; our simplified PARIS has a
    different score calibration, so each scenario picks the threshold that
    reproduces the paper's *starting quality* for that pair (see DESIGN.md).
    ``mutual_best=False`` keeps every scored pair above the threshold — the
    permissive setting behind low-precision starts. A weaker linker
    (``iterations=1``, low ``evidence_tau``) yields the both-low start of
    Figure 2(c).
    """

    score_threshold: float = 0.9
    mutual_best: bool = True
    iterations: int = 4
    evidence_tau: float = 0.8


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment: pair + linker + ALEX config + feedback setup."""

    key: str
    pair_key: str
    linker: LinkerSpec
    episode_size: int
    max_episodes: int = 30
    n_partitions: int = 1
    step_size: float = 0.05
    epsilon: float = 0.1
    theta: float = 0.3
    use_blacklist: bool = True
    use_rollback: bool = True
    use_distinctiveness: bool = True
    rollback_min_negatives: int = 5
    rollback_negative_fraction: float = 0.8
    convergence_patience: int = 1
    feedback_error_rate: float = 0.0
    seed: int = 7
    feedback_seed: int = 3

    def config(self) -> AlexConfig:
        return AlexConfig(
            episode_size=self.episode_size,
            step_size=self.step_size,
            epsilon=self.epsilon,
            theta=self.theta,
            max_episodes=self.max_episodes,
            use_blacklist=self.use_blacklist,
            use_rollback=self.use_rollback,
            use_distinctiveness=self.use_distinctiveness,
            rollback_min_negatives=self.rollback_min_negatives,
            rollback_negative_fraction=self.rollback_negative_fraction,
            convergence_patience=self.convergence_patience,
            seed=self.seed,
        )

    def with_changes(self, **changes) -> "ScenarioSpec":
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """Everything a figure needs to print its series."""

    scenario: ScenarioSpec
    tracker: QualityTracker
    initial_quality: Quality
    final_quality: Quality
    episodes_run: int
    converged_at: int | None
    relaxed_converged_at: int | None
    new_links_found: int
    ground_truth_size: int
    initial_link_count: int
    elapsed_seconds: float
    seconds_per_episode: float


# --------------------------------------------------------------------- #
# Caches (figures share pairs, spaces, and PARIS runs)
# --------------------------------------------------------------------- #

_pair_cache: dict[str, DatasetPair] = {}
_space_cache: dict[tuple, list[FeatureSpace]] = {}
_paris_cache: dict[tuple, LinkSet] = {}


def get_pair(pair_key: str) -> DatasetPair:
    if pair_key not in _pair_cache:
        _pair_cache[pair_key] = load_pair(pair_key)
    return _pair_cache[pair_key]


def get_spaces(pair_key: str, theta: float, n_partitions: int) -> list[FeatureSpace]:
    cache_key = (pair_key, theta, n_partitions)
    if cache_key not in _space_cache:
        pair = get_pair(pair_key)
        if n_partitions == 1:
            spaces = [FeatureSpace.build(pair.left, pair.right, theta)]
        else:
            spaces = build_partitioned_spaces(pair.left, pair.right, n_partitions, theta)
        _space_cache[cache_key] = spaces
    return _space_cache[cache_key]


def get_initial_links(pair_key: str, linker: LinkerSpec) -> LinkSet:
    cache_key = (pair_key, linker)
    if cache_key not in _paris_cache:
        pair = get_pair(pair_key)
        aligner = ParisAligner(
            pair.left,
            pair.right,
            evidence_tau=linker.evidence_tau,
            iterations=linker.iterations,
        )
        scored = aligner.run(mutual_best=linker.mutual_best)
        _paris_cache[cache_key] = scored.filter_by_score(linker.score_threshold)
    return _paris_cache[cache_key].copy()


def clear_caches() -> None:
    """Drop all cached pairs/spaces/linker outputs (tests use this)."""
    _pair_cache.clear()
    _space_cache.clear()
    _paris_cache.clear()


# --------------------------------------------------------------------- #
# The run loop
# --------------------------------------------------------------------- #


def run_scenario(spec: ScenarioSpec) -> ExperimentResult:
    """Build everything for ``spec`` and run ALEX to convergence."""
    pair = get_pair(spec.pair_key)
    spaces = get_spaces(spec.pair_key, spec.theta, spec.n_partitions)
    initial = get_initial_links(spec.pair_key, spec.linker)
    config = spec.config()

    if spec.n_partitions == 1:
        engine: AlexEngine | PartitionedAlex = AlexEngine(spaces[0], initial, config)
    else:
        engine = PartitionedAlex(spaces, initial, config)

    tracker = QualityTracker(pair.ground_truth)
    tracker.record_initial(engine.candidates)
    oracle = GroundTruthOracle(pair.ground_truth)
    if spec.feedback_error_rate > 0.0:
        oracle = NoisyOracle(oracle, spec.feedback_error_rate, seed=spec.feedback_seed)
    session = FeedbackSession(
        engine, oracle, seed=spec.feedback_seed, on_episode_end=tracker.on_episode_end
    )

    started = time.perf_counter()
    episodes = session.run(episode_size=spec.episode_size, max_episodes=spec.max_episodes)
    elapsed = time.perf_counter() - started
    obs.inc("experiments.scenarios.run", scenario=spec.key)

    final_candidates = engine.candidates
    return ExperimentResult(
        scenario=spec,
        tracker=tracker,
        initial_quality=evaluate_links(initial, pair.ground_truth),
        final_quality=evaluate_links(final_candidates, pair.ground_truth),
        episodes_run=episodes,
        converged_at=engine.converged_at,
        relaxed_converged_at=engine.relaxed_converged_at,
        new_links_found=len(new_correct_links(initial, final_candidates, pair.ground_truth)),
        ground_truth_size=len(pair.ground_truth),
        initial_link_count=len(initial),
        elapsed_seconds=elapsed,
        seconds_per_episode=elapsed / max(1, episodes),
    )
