"""The benchmark's workloads: paper scenarios driven through the public API.

A workload has two phases. *Set-up* generates the dataset pair, builds the
θ-filtered feature space and runs PARIS for the initial links; it always
starts cold. A *session* is one simulated user driving a fresh ALEX engine
over that space, from the initial links to the end of the feedback loop.
The workload seed drives every RNG seed of a session (ALEX's ε-greedy
choice, link sampling, query generation); session ``k`` of seed ``s`` uses
the repository's configured seeds plus ``1000·s + k``, so session 0 of seed
:data:`DEFAULT_SEED` is exactly the repository's own configuration. The
dataset pair is the catalog's, whatever the seed (see README.md for why).
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs
from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.datasets.catalog import load_pair
from repro.datasets.generator import DatasetPair
from repro.evaluation.metrics import evaluate_links
from repro.experiments import runner
from repro.experiments.runner import LinkerSpec
from repro.experiments.scenarios import SCENARIOS
from repro.features.feature_set import DEFAULT_THETA
from repro.features.space import FeatureSpace
from repro.federation import Endpoint, FederatedEngine
from repro.feedback.oracle import GroundTruthOracle
from repro.feedback.session import FeedbackSession, QueryFeedbackSession
from repro.feedback.workload import QueryWorkloadGenerator, WorkloadSession
from repro.links import LinkSet
from repro.paris.align import DEFAULT_EVIDENCE_TAU, ParisAligner
from repro.similarity import prepared as similarity_prepared
from repro.sparql import prepared as sparql_prepared

from spans import Recorder

DEFAULT_SEED = 0
#: Seed offset between workload seeds; a run holds fewer sessions than this.
SEED_STRIDE = 1000

#: The federated workload (paper §3.2), as in benchmarks/bench_workload_feedback.py.
FEDERATED_PAIR = "dbpedia_nytimes"
FEDERATED_LINKER = LinkerSpec(
    score_threshold=0.8, mutual_best=True, iterations=3, evidence_tau=DEFAULT_EVIDENCE_TAU
)
FEDERATED_EPISODES = 80
FEDERATED_BUDGET = 50
FEDERATED_SEED = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its pair, linker and sessions.
    BENCHMARK.json says why each is in the benchmark."""

    name: str
    pair_key: str
    theta: float
    linker: LinkerSpec
    #: distinct sessions per run; final_f is their median
    sessions: int
    #: span names a traced session must produce
    required_spans: tuple[str, ...]
    #: batch scenario key, or None for the federated workload
    scenario: str | None = None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig2a-explore",
            pair_key=SCENARIOS["fig2a"].pair_key,
            theta=SCENARIOS["fig2a"].theta,
            linker=SCENARIOS["fig2a"].linker,
            sessions=16,
            required_spans=("features.explore", "core.process_feedback", "feedback.episode"),
            scenario="fig2a",
        ),
        Workload(
            name="fig2b-prune",
            pair_key=SCENARIOS["fig2b"].pair_key,
            theta=SCENARIOS["fig2b"].theta,
            linker=SCENARIOS["fig2b"].linker,
            sessions=16,
            required_spans=("core.process_feedback", "links.remove", "feedback.episode"),
            scenario="fig2b",
        ),
        Workload(
            name="federated-query",
            pair_key=FEDERATED_PAIR,
            theta=DEFAULT_THETA,
            linker=FEDERATED_LINKER,
            sessions=8,
            required_spans=(
                "federation.select",
                "feedback.submit_query",
                "feedback.workload_episode",
            ),
        ),
    )
}


@dataclass
class Setup:
    """The output of one set-up: the pair, its space and PARIS links."""

    pair: DatasetPair | None
    space: FeatureSpace | None
    initial: LinkSet | None
    seconds: float
    record: dict
    counters: Counter

    def release(self) -> None:
        """Let the pair, space and links go; keep the record and timings."""
        self.pair = self.space = self.initial = None


@dataclass
class Session:
    """What one session produced: its correctness record and timings."""

    record: dict
    loop_s: float
    latencies_ms: list[float]
    blacklist_size: int
    queries_answered: int = 0
    counters: Counter = field(default_factory=Counter)


class ClockedOracle:
    """The simulated user: judges by ground truth and notes when each
    judgement was asked for."""

    def __init__(self, ground_truth: LinkSet):
        self.inner = GroundTruthOracle(ground_truth)
        self.asked: list[float] = []

    def judge(self, link) -> bool:
        self.asked.append(time.perf_counter())
        return self.inner.judge(link)


def start_cold() -> None:
    """Drop every process-wide cache and metric, then check they are empty.

    Also collects garbage, so no earlier phase's leftovers are collected
    inside a timed one."""
    gc.collect()
    runner.clear_caches()
    similarity_prepared.clear_caches()
    sparql_prepared.clear_plan_cache()
    obs.reset()
    leftovers = {
        name: value
        for name, value in similarity_prepared.cache_info().items()
        if not name.endswith("_max") and value
    }
    entries = sparql_prepared.plan_cache_info()["entries"]
    if entries:
        leftovers["plan_cache_entries"] = entries
    # The runner exposes no size query; its three memo dicts must be empty.
    for name in ("_pair_cache", "_space_cache", "_paris_cache"):
        if getattr(runner, name):
            leftovers[f"runner.{name}"] = len(getattr(runner, name))
    if leftovers:
        raise RuntimeError(f"caches not cold: {leftovers}")


def counters() -> Counter:
    """Counter totals of the obs registry by ``(name, layer label)``."""
    totals: Counter = Counter()
    for entry in obs.snapshot()["counters"]:
        totals[entry["name"], entry["labels"].get("layer", "")] += entry["value"]
    return totals


def digest(links: LinkSet) -> str:
    """SHA-256 of the sorted link set, one ``left right`` line per link."""
    lines = sorted(f"{link.left.value} {link.right.value}\n" for link in links)
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def set_up(workload: Workload, recorder: Recorder) -> Setup:
    """One cold set-up: generate the pair, build the space, run PARIS."""
    start_cold()
    linker = workload.linker
    with recorder.span("setup"):
        started = time.perf_counter()
        with recorder.span("datasets.generate"):
            pair = load_pair(workload.pair_key)
        with recorder.span("features.build"):
            space = FeatureSpace.build(pair.left, pair.right, workload.theta)
        with recorder.span("paris.run"):
            aligner = ParisAligner(
                pair.left,
                pair.right,
                evidence_tau=linker.evidence_tau,
                iterations=linker.iterations,
            )
            scored = aligner.run(mutual_best=linker.mutual_best)
            initial = scored.filter_by_score(linker.score_threshold)
        seconds = time.perf_counter() - started
    record = {
        "space_links": len(space),
        "scored_links": len(scored),
        "initial_links": len(initial),
        "digest": digest(initial),
    }
    return Setup(pair, space, initial, seconds, record, counters())


@contextmanager
def _loop(recorder: Recorder, traced: bool):
    """The feedback loop's span; a traced session also times the loop's
    calls into the program (see :func:`loop_targets`)."""
    with recorder.patched(loop_targets() if traced else ()), recorder.span("feedback.run"):
        yield


def _quality(record: dict, candidates: LinkSet, ground_truth: LinkSet) -> dict:
    quality = evaluate_links(candidates, ground_truth)
    record.update(
        precision=quality.precision,
        recall=quality.recall,
        f_measure=quality.f_measure,
        candidates=len(candidates),
        digest=digest(candidates),
    )
    return record


def _batch_session(workload, setup, offset, recorder, traced) -> Session:
    spec = SCENARIOS[workload.scenario]
    spec = spec.with_changes(seed=spec.seed + offset, feedback_seed=spec.feedback_seed + offset)
    engine = AlexEngine(setup.space, setup.initial, spec.config())
    oracle = ClockedOracle(setup.pair.ground_truth)
    session = FeedbackSession(engine, oracle, seed=spec.feedback_seed)
    with _loop(recorder, traced):
        started = time.perf_counter()
        episodes = session.run(episode_size=spec.episode_size, max_episodes=spec.max_episodes)
        ended = time.perf_counter()
    # A feedback item lasts from its judgement to the next one's.
    asked = oracle.asked + [ended]
    record = {"episodes": episodes, "feedback_items": session.total_feedback}
    return Session(
        record=_quality(record, engine.candidates, setup.pair.ground_truth),
        loop_s=ended - started,
        latencies_ms=[(after - before) * 1e3 for before, after in zip(asked, asked[1:])],
        blacklist_size=len(engine.blacklist),
    )


def _federated_session(workload, setup, offset, recorder, traced) -> Session:
    seed = FEDERATED_SEED + offset
    config = AlexConfig(episode_size=FEDERATED_BUDGET, seed=seed, rollback_min_negatives=3)
    engine = AlexEngine(setup.space, setup.initial, config)
    pair = setup.pair
    federation = FederatedEngine([Endpoint(pair.left), Endpoint(pair.right)], links=engine.candidates)
    generator = QueryWorkloadGenerator(pair.left, pair.right, seed=seed)
    session = WorkloadSession(
        engine, federation, generator, GroundTruthOracle(pair.ground_truth), seed=seed
    )
    latencies_ms: list[float] = []
    query_session = session.query_session

    def timed_submit(query_text: str) -> int:
        begun = time.perf_counter()
        # looked up per call, so a traced session times the patched method
        items = QueryFeedbackSession.submit_query(query_session, query_text)
        latencies_ms.append((time.perf_counter() - begun) * 1e3)
        return items

    query_session.submit_query = timed_submit
    with _loop(recorder, traced):
        started = time.perf_counter()
        items = session.run(episodes=FEDERATED_EPISODES, feedback_budget=FEDERATED_BUDGET)
        ended = time.perf_counter()
    record = {
        "episodes": engine.episodes_completed,
        "feedback_items": items,
        "queries_issued": session.queries_issued,
    }
    return Session(
        record=_quality(record, engine.candidates, pair.ground_truth),
        loop_s=ended - started,
        latencies_ms=latencies_ms,
        blacklist_size=len(engine.blacklist),
        queries_answered=session.queries_answered,
    )


def run_session(
    workload: Workload, setup: Setup, seed: int, index: int, recorder: Recorder, traced: bool
) -> Session:
    """Session ``index`` of workload ``seed`` over ``setup``, started cold."""
    start_cold()
    run = _batch_session if workload.scenario else _federated_session
    with recorder.span("session"):
        session = run(workload, setup, SEED_STRIDE * seed + index, recorder, traced)
    session.counters = counters()
    return session


def loop_targets():
    """``(class, method, span name)`` for each public call a traced session
    times inside the feedback loop."""
    return [
        (FeedbackSession, "run_episode", "feedback.episode"),
        (WorkloadSession, "run_episode", "feedback.workload_episode"),
        (QueryWorkloadGenerator, "generate", "feedback.generate"),
        (QueryFeedbackSession, "submit_query", "feedback.submit_query"),
        (GroundTruthOracle, "judge", "feedback.judge"),
        (FederatedEngine, "select", "federation.select"),
        (AlexEngine, "process_feedback", "core.process_feedback"),
        (AlexEngine, "end_episode", "core.end_episode"),
        (FeatureSpace, "explore", "features.explore"),
        (LinkSet, "add", "links.add"),
        (LinkSet, "remove", "links.remove"),
    ]
