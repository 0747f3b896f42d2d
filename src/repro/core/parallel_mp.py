"""True multi-core execution of partitioned ALEX (Section 6.2).

The paper: "The different partitions can be independently explored in
parallel, either on different CPU cores of the same machine or on multiple
machines in a distributed setting." :class:`~repro.core.parallel.PartitionedAlex`
runs partitions in-process; this module ships each partition to a worker
process instead. Because partitions share nothing, the only coordination is
the initial scatter and the final gather.

Both entry points run on the persistent :mod:`repro.core.workers` pool —
workers spawn once and survive across builds — and partitions cross the
process boundary **dictionary-encoded** (the flat-array wire format of
:mod:`repro.similarity.prepared`), never as pickled entity objects:

* :func:`build_space_parallel` ships each left chunk and the shared right
  side as entity blobs; workers return scored feature-space deltas
  (:func:`~repro.features.space.encode_space_delta`) plus their obs
  snapshot, and the parent merges and freezes once.
* :func:`run_partitions_parallel` ships each partition's feature space as a
  space-delta blob; each worker runs a full feedback session against its
  own slice of the ground truth (the paper's model: feedback "is directed
  to all partitions" — a feedback item concerns exactly one link, hence
  exactly one partition).

Workers memoize decoded blobs by digest, so the right side decodes once per
worker lifetime however many chunks or builds flow through, and the
module-level similarity caches stay warm between builds — decoded terms are
value-equal to the originals, so the intern tables hit and steady-state
rebuilds skip most of the string-metric work.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.core.parallel import partition_index
from repro.core.workers import WorkerPool, shared_pool
from repro.errors import ConfigError
from repro.features.feature_set import DEFAULT_THETA
from repro.features.space import (
    FeatureSpace,
    decode_space_delta,
    encode_space_delta,
    merge_spaces,
)
from repro.feedback.oracle import GroundTruthOracle, NoisyOracle
from repro.feedback.session import FeedbackSession
from repro.links import Link, LinkSet
from repro.obs import trace
from repro.rdf.entity import Entity
from repro.similarity.prepared import decode_entities, encode_entities


@dataclass
class PartitionOutcome:
    """Result of one partition's run."""

    name: str
    candidates: frozenset[Link]
    episodes_run: int
    converged_at: int | None
    relaxed_converged_at: int | None
    elapsed_seconds: float
    #: the worker's obs registry snapshot; merged into the parent's registry
    obs_snapshot: dict | None = field(default=None, repr=False)


@dataclass
class PartitionBuildStats:
    """Per-partition runtime facts from one space-build task.

    These are the features runtime-approximation planners fit cost models
    on (see PAPERS.md); the bench records them verbatim in its payload.
    """

    name: str
    pairs_considered: int
    pairs_admitted: int
    bytes_shipped: int
    wall_seconds: float


# --------------------------------------------------------------------- #
# Worker-side decoded-blob memo
# --------------------------------------------------------------------- #

#: digest → decoded entity list, bounded. Worker-process state: the shared
#: right side arrives with every chunk task but decodes once per worker
#: lifetime, and repeated builds of the same datasets skip decoding
#: entirely. Worker processes are single-threaded, so no lock is needed.
_decode_cache: dict[bytes, list[Entity]] = {}
_DECODE_CACHE_MAX = 8


def _decode_entities_cached(blob: bytes) -> list[Entity]:
    digest = hashlib.sha1(blob).digest()
    entities = _decode_cache.get(digest)
    if entities is None:
        entities = decode_entities(blob)
        if len(_decode_cache) >= _DECODE_CACHE_MAX:
            _decode_cache.pop(next(iter(_decode_cache)))
        _decode_cache[digest] = entities
    return entities


# --------------------------------------------------------------------- #
# Space building
# --------------------------------------------------------------------- #


def _score_space_partition(
    left_blob: bytes,
    right_blob: bytes,
    theta: float,
    use_blocking: bool,
    fast: bool,
    name: str,
) -> tuple[bytes, dict, float, int]:
    """Worker body: decode one partition, score it, encode the delta.

    Returns ``(delta_blob, obs_snapshot, wall_seconds, pairs_admitted)``.
    Runs under an isolated obs registry (same pattern as feedback
    partitions) so the worker's phase timers and cache counters travel back
    in the snapshot and merge into the parent registry.
    """
    started = time.monotonic()
    with obs.use_registry(obs.Registry(name)) as registry:
        with obs.timer("space.build.ship"):
            left_chunk = _decode_entities_cached(left_blob)
            right_entities = _decode_entities_cached(right_blob)
        space = FeatureSpace._build_single_process(
            left_chunk, right_entities, theta, use_blocking, fast, freeze=False
        )
        with obs.timer("space.build.ship"):
            delta = encode_space_delta(space)
        return delta, registry.snapshot(), time.monotonic() - started, space.size


def build_space_parallel(
    left_entities: Sequence[Entity],
    right_entities: Sequence[Entity],
    *,
    theta: float = DEFAULT_THETA,
    use_blocking: bool = True,
    fast: bool = True,
    workers: int = 2,
    pool: WorkerPool | None = None,
    stats_out: list[PartitionBuildStats] | None = None,
) -> FeatureSpace:
    """Build a :class:`FeatureSpace` with the left side split across processes.

    Each worker scores a contiguous slice of the left entities against the
    full right side, so no candidate pair is scored twice and the merged
    space is identical (links, scores, ``total_pairs_considered``) to a
    single-process build: blocking depends only on the right side, and the
    merge deduplicates by link. Worker obs snapshots (``space.build.*``
    phase timers, ``similarity.cache.*`` counters) merge into the caller's
    registry, mirroring :func:`run_partitions_parallel`.

    ``workers`` controls the number of partitions; the pool itself sizes to
    the machine's CPUs and persists across calls (``pool=None`` uses the
    process-shared pool). ``stats_out``, when given, receives one
    :class:`PartitionBuildStats` per partition.
    """
    left_entities = list(left_entities)
    right_entities = list(right_entities)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max(1, len(left_entities)))
    chunk_size = (len(left_entities) + workers - 1) // workers if left_entities else 1
    chunks = [left_entities[i:i + chunk_size] for i in range(0, len(left_entities), chunk_size)]
    if not chunks:
        chunks = [[]]

    with obs.timer("space.build.ship"):
        right_blob = encode_entities(right_entities)
        jobs = [
            (
                encode_entities(chunk),
                right_blob,
                theta,
                use_blocking,
                fast,
                f"space-build-{index}",
            )
            for index, chunk in enumerate(chunks)
        ]
        bytes_per_job = [len(job[0]) + len(right_blob) for job in jobs]
        obs.inc("pool.bytes.shipped", sum(bytes_per_job))

    if len(jobs) == 1 or workers == 1:
        # Inline fallback: same codec + scoring body, no process hop.
        results = [_score_space_partition(*job) for job in jobs]
    else:
        if pool is None:
            pool = shared_pool(workers)
        results = pool.run_tasks(_score_space_partition, jobs, label="space-build")

    with obs.timer("space.build.merge"):
        spaces = []
        for index, (delta, snapshot, wall_seconds, admitted) in enumerate(results):
            space = decode_space_delta(delta)
            spaces.append(space)
            obs.merge(snapshot)
            if stats_out is not None:
                stats_out.append(
                    PartitionBuildStats(
                        name=f"space-build-{index}",
                        pairs_considered=len(chunks[index]) * len(right_entities),
                        pairs_admitted=admitted,
                        bytes_shipped=bytes_per_job[index] + len(delta),
                        wall_seconds=wall_seconds,
                    )
                )
        obs.inc("space.build.partitions", len(spaces))
        merged = merge_spaces(spaces)
    return merged


# --------------------------------------------------------------------- #
# Episode batch processing
# --------------------------------------------------------------------- #


def _run_partition(
    space_blob: bytes,
    initial_links: frozenset[Link],
    ground_truth_links: frozenset[Link],
    config: AlexConfig,
    episode_size: int,
    max_episodes: int,
    feedback_seed: int,
    error_rate: float,
    name: str,
    trace_config: tuple | None = None,
) -> PartitionOutcome:
    """Worker body: one partition, one engine, one session.

    The partition's feature space arrives as a space-delta blob (the same
    dictionary-encoded wire format the build path uses) and is frozen after
    decoding — deterministic, since freezing sorts by value.

    ``trace_config`` is ``(capacity, sample, seed)`` when the parent had a
    tracer installed: the worker installs its own (per-partition seed) on
    its scoped registry, and the audit events ride home inside the
    ``obs_snapshot``'s ``events`` section.
    """
    # An isolated registry per partition: forked workers inherit the parent
    # registry, and the inline (max_workers=1) path shares it — either way
    # the partition's metrics must be its own, merged once at the gather.
    with obs.use_registry(obs.Registry(name)) as registry:
        if trace_config is not None:
            capacity, sample, seed = trace_config
            trace.install(capacity=capacity, sample=sample, seed=seed)
        with obs.timer("space.build.ship"):
            space = decode_space_delta(space_blob)
            space.freeze()
        engine = AlexEngine(space, LinkSet(initial_links), config, name=name)
        oracle: GroundTruthOracle | NoisyOracle = GroundTruthOracle(LinkSet(ground_truth_links))
        if error_rate > 0.0:
            oracle = NoisyOracle(oracle, error_rate, seed=feedback_seed)
        session = FeedbackSession(engine, oracle, seed=feedback_seed)
        episodes = session.run(episode_size=episode_size, max_episodes=max_episodes)
        return PartitionOutcome(
            name=name,
            candidates=engine.candidates.snapshot(),
            episodes_run=episodes,
            converged_at=engine.converged_at,
            relaxed_converged_at=engine.relaxed_converged_at,
            elapsed_seconds=session.elapsed_seconds,
            obs_snapshot=registry.snapshot(),
        )


def run_partitions_parallel(
    spaces: Sequence[FeatureSpace],
    initial_links: LinkSet,
    ground_truth: LinkSet,
    config: AlexConfig,
    episode_size: int,
    max_episodes: int,
    max_workers: int | None = None,
    feedback_seed: int = 3,
    error_rate: float = 0.0,
    pool: WorkerPool | None = None,
) -> tuple[LinkSet, list[PartitionOutcome]]:
    """Run every partition in its own process and merge the results.

    Returns the union of all partitions' final candidate links plus the
    per-partition outcomes. Links are routed by
    :func:`~repro.core.parallel.partition_index`, the rule
    :class:`~repro.core.parallel.PartitionedAlex` uses. Partition work runs on
    the persistent worker pool (``pool=None`` uses the process-shared one),
    so consecutive runs reuse the same worker processes.
    """
    if not spaces:
        raise ConfigError("run_partitions_parallel needs at least one space")

    initial_per_partition: list[set[Link]] = [set() for _ in spaces]
    for link in initial_links:
        initial_per_partition[partition_index(spaces, link)].add(link)
    truth_per_partition: list[set[Link]] = [set() for _ in spaces]
    for link in ground_truth:
        truth_per_partition[partition_index(spaces, link)].add(link)

    parent_tracer = trace.active()
    with obs.timer("space.build.ship"):
        space_blobs = [encode_space_delta(space) for space in spaces]
        obs.inc("pool.bytes.shipped", sum(len(blob) for blob in space_blobs))
    jobs = [
        (
            space_blobs[index],
            frozenset(initial_per_partition[index]),
            frozenset(truth_per_partition[index]),
            config.replace(seed=config.seed + index),
            episode_size,
            max_episodes,
            feedback_seed + index,
            error_rate,
            f"partition-{index}",
            None
            if parent_tracer is None
            else (
                parent_tracer.capacity,
                parent_tracer.sample,
                None if parent_tracer.seed is None else parent_tracer.seed + index + 1,
            ),
        )
        for index in range(len(spaces))
    ]

    if max_workers == 1 or len(spaces) == 1:
        outcomes = [_run_partition(*job) for job in jobs]
    else:
        if pool is None:
            pool = shared_pool(max_workers)
        outcomes = pool.run_tasks(_run_partition, jobs, label="episodes")

    merged = LinkSet(name="parallel-merged")
    obs.inc("parallel.partitions.run", len(outcomes))
    for outcome in outcomes:
        for link in outcome.candidates:
            merged.add(link)
        if outcome.obs_snapshot is not None:
            # one whole-run snapshot: counters/histograms/spans sum across
            # partitions (gauges are last-write-wins — label per-partition
            # breakdowns yourself if you need them)
            obs.merge(outcome.obs_snapshot)
    return merged, outcomes
