"""Feedback sessions: driving ALEX with simulated user feedback.

:class:`FeedbackSession` reproduces the paper's evaluation loop: sample a
random link from the current candidate set, obtain the oracle's verdict,
hand it to the engine, and close episodes / improve the policy every
``episode_size`` items until convergence or the episode budget runs out.
Per-episode link quality is recorded through a caller-supplied callback
(usually :class:`repro.evaluation.tracker.QualityTracker`).

:class:`QueryFeedbackSession` routes feedback the way the deployed system
would — through federated query answers: it executes queries, lets the
oracle judge each link-derived answer row, and converts row verdicts into
per-link feedback (Section 3.2).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Protocol

from repro import obs
from repro.core.engine import AlexEngine
from repro.core.episode import EpisodeStats
from repro.core.parallel import PartitionedAlex
from repro.errors import ConfigError
from repro.federation.executor import FederatedEngine
from repro.feedback.oracle import FeedbackOracle
from repro.links import Link, LinkSet

#: Engines drivable by a session (single or partitioned).
Engine = AlexEngine | PartitionedAlex

#: Called at each episode boundary with (episode_stats, candidates).
EpisodeCallback = Callable[[EpisodeStats, LinkSet], None]


class FeedbackSession:
    """Random-candidate feedback loop (the paper's experimental driver)."""

    def __init__(
        self,
        engine: Engine,
        oracle: FeedbackOracle,
        seed: int = 0,
        on_episode_end: EpisodeCallback | None = None,
    ):
        self.engine = engine
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.on_episode_end = on_episode_end
        self.total_feedback = 0
        self.elapsed_seconds = 0.0

    def _candidate_pool(self) -> list[Link]:
        # A live list the candidate set keeps sorted across add/remove, so
        # re-reading it after a change costs no sort. (PartitionedAlex
        # merges a fresh set per call, which sorts once.)
        return self.engine.candidates.ordered()

    def run_episode(self, episode_size: int) -> EpisodeStats:
        """Collect one episode of feedback, then improve the policy."""
        if episode_size < 1:
            raise ConfigError(f"episode_size must be >= 1, got {episode_size}")
        started = time.perf_counter()
        # With a tracer installed the span also groups every engine audit
        # event of this episode under one trace id.
        with obs.span("alex.episode.run", index=self.engine.episodes_completed + 1):
            pool = self._candidate_pool()
            for _ in range(episode_size):
                if not pool:
                    break
                link = pool[self.rng.randrange(len(pool))]
                verdict = self.oracle.judge(link)
                discovered = self.engine.process_feedback(link, verdict)
                self.total_feedback += 1
                obs.inc("session.feedback.items")
                if verdict is False or discovered:
                    # The pool changed: negative feedback removed the link;
                    # positive feedback may have added links worth sampling.
                    pool = self._candidate_pool()
            stats = self.engine.end_episode()
        self.elapsed_seconds += time.perf_counter() - started
        if self.on_episode_end is not None:
            self.on_episode_end(stats, self.engine.candidates)
        return stats

    def run(self, episode_size: int, max_episodes: int | None = None) -> int:
        """Run episodes until the engine stops; returns episodes run."""
        episodes = 0
        budget = max_episodes if max_episodes is not None else self.engine.config.max_episodes
        while not self.engine.stopped and episodes < budget:
            self.run_episode(episode_size)
            episodes += 1
        return episodes


class QueryFeedbackSession:
    """Feedback through federated query answers, as deployed (Figure 1).

    Each call to :meth:`submit_query` executes a federated SELECT; for each
    answer row derived through at least one candidate link, the oracle's
    verdict on the row becomes feedback on every link the row used. The
    verdict for a row is the conjunction of its links' correctness — an
    answer built on any wrong link is a wrong answer.
    """

    def __init__(
        self,
        alex: Engine,
        federation: FederatedEngine,
        oracle: FeedbackOracle,
    ):
        self.alex = alex
        self.federation = federation
        self.oracle = oracle
        self.answers_judged = 0

    def submit_query(self, query_text: str) -> int:
        """Run a query and feed back on its link-derived answers.

        Returns the number of feedback items produced.
        """
        result = self.federation.select(query_text)
        items = 0
        for row in result.cross_dataset_rows():
            # deterministic link order (frozenset iteration is hash-salted)
            row_links = sorted(
                row.links_used, key=lambda l: (l.left.value, l.right.value)
            )
            row_correct = all(self.oracle.judge(link) for link in row_links)
            self.answers_judged += 1
            obs.inc("session.answers.judged")
            for link in row_links:
                # Per the paper: feedback on the answer is interpreted as
                # feedback on the link(s) used to produce it.
                verdict = row_correct if row_correct else self.oracle.judge(link)
                self.alex.process_feedback(link, verdict)
                items += 1
        return items
