"""The ALEX engine: Algorithm 1 with the Section 6 optimizations.

One engine owns one (partition of the) feature space and one candidate link
set. Feedback items arrive one at a time:

* **positive** — the link is confirmed; the policy picks a feature of the
  link's state and the engine explores the space around that feature's
  score, adding the discovered links to the candidate set (recording their
  provenance for credit assignment and rollback);
* **negative** — the link is removed (and blacklisted), and every
  state-action pair that generated it takes a negative return; pairs whose
  generated links keep attracting negative feedback are rolled back.

Rewards propagate into ``Returns(s, a)`` under the first-visit Monte Carlo
rule. At each episode boundary the policy is improved to be greedy with
respect to the current action values, and convergence is measured as the
change in the candidate link set.
"""

from __future__ import annotations

import random
import time
from typing import Iterable

from repro import obs
from repro.obs import slowlog, trace
from repro.core.config import AlexConfig
from repro.core.distinctiveness import FeatureDistinctiveness
from repro.core.episode import Episode, EpisodeStats
from repro.core.policy import EpsilonGreedyPolicy
from repro.core.provenance import ExplorationLedger
from repro.core.state import StateAction, available_actions
from repro.core.value import ActionValueTable
from repro.features.space import FeatureSpace
from repro.links import Link, LinkSet, change_fraction


class AlexEngine:
    """One ALEX learner over one feature space."""

    def __init__(
        self,
        space: FeatureSpace,
        initial_links: LinkSet | Iterable[Link],
        config: AlexConfig,
        name: str = "alex",
    ):
        self.space = space
        self.config = config
        self.name = name
        self.candidates = (
            initial_links.copy() if isinstance(initial_links, LinkSet) else LinkSet(initial_links)
        )
        self.candidates.name = name
        self.policy = EpsilonGreedyPolicy(config.epsilon)
        self.values = ActionValueTable()
        self.ledger = ExplorationLedger()
        self.distinctiveness = FeatureDistinctiveness(
            config.distinctiveness_min_negatives,
            config.distinctiveness_negative_fraction,
        )
        self.blacklist: set[Link] = set()
        self.confirmed: set[Link] = set()
        #: per-link feedback tallies (positives, negatives) — the evidence
        #: balance that makes ALEX resilient to erroneous feedback: a link
        #: is removed only when negative evidence outweighs positive.
        self._tally: dict[Link, list[int]] = {}
        self.rng = random.Random(config.seed)

        self.episode_history: list[EpisodeStats] = []
        self.converged_at: int | None = None
        self.relaxed_converged_at: int | None = None
        self._episode = Episode(index=1)
        self._last_snapshot = self.candidates.snapshot()
        self._unchanged_streak = 0

        #: Background telemetry reporter (see :class:`repro.obs.Reporter`);
        #: created lazily on the first feedback item when the config sets
        #: both ``report_interval`` > 0 and ``report_path``.
        self._reporter = None
        self._reporting = (
            config.report_interval > 0 and config.report_path is not None
        )
        self._closed = False
        self._episode_started = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #

    @property
    def converged(self) -> bool:
        """Strict convergence: a whole episode left the candidates unchanged."""
        return self.converged_at is not None

    @property
    def stopped(self) -> bool:
        """Converged or out of episode budget."""
        return self.converged or len(self.episode_history) >= self.config.max_episodes

    @property
    def episodes_completed(self) -> int:
        return len(self.episode_history)

    def owns(self, link: Link) -> bool:
        """Is this engine responsible for feedback on ``link``?"""
        return link in self.candidates or link in self.space

    # ------------------------------------------------------------------ #
    # Background services
    # ------------------------------------------------------------------ #

    def reporter(self):
        """The engine-owned background :class:`~repro.obs.Reporter`, or
        None when reporting is not configured (the default).

        Lazy: the first call creates and starts the reporter thread;
        subsequent calls return the same instance. The engine starts it
        automatically on the first feedback item, and :meth:`close` stops
        it.
        """
        if not self._reporting:
            return None
        if self._reporter is None:
            from repro.obs.report import Reporter

            self._reporter = Reporter(
                self.config.report_interval, self.config.report_path
            )
            self._reporter.start()
        return self._reporter

    def close(self) -> None:
        """Release engine resources: stops the background reporter and
        flushes the slowlog.

        Idempotent — closing twice (or closing an engine whose reporter
        never started) is a no-op the second time. Call when the engine is
        finished, so test runs and services don't leak reporter threads.
        The shared worker pool is not the engine's: whoever sized it
        (:meth:`FeatureSpace.build`, ``run_partitions_parallel``) reuses
        it, and ``shutdown_shared_pool()`` or ``atexit`` tears it down.
        """
        reporter, self._reporter = self._reporter, None
        self._reporting = False
        if reporter is not None:
            reporter.stop()
        slog = slowlog.active()
        if slog is not None:
            slog.flush()
        self._closed = True

    @property
    def closed(self) -> bool:
        """Has :meth:`close` run?"""
        return self._closed

    # ------------------------------------------------------------------ #
    # Pre-flight data validation
    # ------------------------------------------------------------------ #

    def preflight(self, left=None, right=None, *, strict=False, quarantine=False):
        """Statically validate the candidate link set before spending
        episodes on it (see :mod:`repro.rdf.validate`).

        Runs the link tier against the candidates with this engine's θ and
        blacklist; ``left``/``right`` graphs additionally enable endpoint-
        presence checks. Returns the ordered diagnostics. Never runs unless
        called — constructing or feeding the engine stays validation-free.

        ``quarantine=True`` moves exactly the links behind error-level
        diagnostics out of the candidates and onto the blacklist (counted as
        ``alex.preflight.quarantined``); nothing else is mutated.
        ``strict=True`` raises :class:`~repro.errors.DataValidationError`
        when error-level diagnostics were found.
        """
        from repro.rdf.validate import validate_links

        diagnostics = validate_links(
            self.candidates,
            left=left,
            right=right,
            theta=self.config.theta,
            blacklist=self.blacklist,
        )
        obs.inc("alex.preflight.runs")
        if quarantine:
            quarantined = 0
            for diagnostic in diagnostics:
                link = diagnostic.link
                if diagnostic.is_error and link is not None and link in self.candidates:
                    self.candidates.remove(link)
                    self.blacklist.add(link)
                    quarantined += 1
            if quarantined:
                obs.inc("alex.preflight.quarantined", quarantined)
        if strict and any(diagnostic.is_error for diagnostic in diagnostics):
            from repro.errors import DataValidationError

            raise DataValidationError(
                [d.format() for d in diagnostics if d.is_error], diagnostics=diagnostics
            )
        return diagnostics

    # ------------------------------------------------------------------ #
    # Feedback processing (policy evaluation)
    # ------------------------------------------------------------------ #

    def process_feedback(self, link: Link, positive: bool) -> list[Link]:
        """Apply one feedback item; returns any newly discovered links."""
        if self._reporting and self._reporter is None:
            self.reporter()  # lazy start on first feedback
        obs.inc("alex.feedback.processed", verdict="positive" if positive else "negative")
        self._episode.record_feedback(positive)
        self._credit(link, positive)
        tally = self._tally.setdefault(link, [0, 0])
        tally[0 if positive else 1] += 1
        tracer = trace.active()
        if positive:
            self.confirmed.add(link)
            self.blacklist.discard(link)
            if link not in self.candidates:
                # A correct link the user vouched for re-enters the set.
                self.candidates.add(link)
            for state_action in self.ledger.generators_of(link):
                self.ledger.record_positive(state_action)
            if tracer is not None:
                tracer.event(
                    "alex.link.approve",
                    link=str(link),
                    reward=self.config.positive_reward,
                    positives=tally[0],
                    negatives=tally[1],
                )
            return self._explore_from(link)
        removed = tally[1] > tally[0]
        if tracer is not None:
            tracer.event(
                "alex.link.reject",
                link=str(link),
                reward=self.config.negative_reward,
                removed=removed,
                positives=tally[0],
                negatives=tally[1],
            )
        if removed:
            # Remove only when negative evidence outweighs positive: one
            # erroneous rejection cannot destroy a repeatedly approved link
            # (the error resilience claimed in the paper's abstract).
            self._remove_link(link)
        return []

    def _credit(self, link: Link, positive: bool) -> None:
        """First-visit Monte Carlo: on the first visit of ``link`` this
        episode, its reward flows to every generating state-action pair."""
        if not self._episode.first_visit(link):
            return
        reward = self.config.positive_reward if positive else self.config.negative_reward
        for state_action in self.ledger.generators_of(link):
            self.values.record_return(state_action, reward)
            self.distinctiveness.record(state_action.action, reward, positive)

    def _explore_from(self, state: Link) -> list[Link]:
        """Take an action at an approved link (Section 4.2)."""
        feature_set = self.space.feature_set(state)
        if feature_set is None or not feature_set:
            return []
        with obs.span("alex.feature.explore"):
            actions = available_actions(feature_set)
            if self.config.use_distinctiveness:
                # Cross-state lesson (Section 4.2): never explore around a
                # feature known to be non-distinctive.
                actions = self.distinctiveness.filter_actions(actions)
            action, mode = self._choose_action_with_mode(state, actions)
            self._episode.record_action(state)
            center = feature_set[action]
            state_action = StateAction(state, action)
            tracer = trace.active()
            feature_label = f"{action[0]} {action[1]}"
            if tracer is not None:
                tracer.event(
                    "alex.feature.select",
                    state=str(state),
                    feature=feature_label,
                    mode=mode,
                    q={
                        f"{a[0]} {a[1]}": self.values.q(StateAction(state, a))
                        for a in actions
                    },
                )
            discovered: list[Link] = []
            for candidate in self.space.explore(action, center, self.config.step_size):
                if candidate in self.blacklist or candidate in self.candidates:
                    continue
                self.candidates.add(candidate)
                self.ledger.record(state_action, candidate)
                discovered.append(candidate)
                if tracer is not None:
                    tracer.event(
                        "alex.link.discover",
                        link=str(candidate),
                        state=str(state),
                        feature=feature_label,
                        mode=mode,
                    )
            self._episode.stats.links_discovered += len(discovered)
            if discovered:
                obs.inc("alex.links.discovered", len(discovered))
        return discovered

    def _choose_action_with_mode(self, state: Link, actions: list) -> tuple:
        """π(s): the improved policy when available; for states the policy
        has never improved, bootstrap ε-greedily from the cross-state
        per-feature returns rather than purely at random.

        Returns ``(action, mode)`` with mode ∈ {"uniform", "exploit",
        "explore", "bootstrap"} — the audit trail's record of *why* the
        feature was chosen. RNG consumption is identical to the pre-audit
        behaviour, so seeded runs are unchanged."""
        if self.policy.greedy_action(state) is not None or not self.config.use_distinctiveness:
            return self.policy.choose_with_mode(state, actions, self.rng)
        bootstrap = self.distinctiveness.best_known(actions)
        if bootstrap is not None and self.rng.random() < 1.0 - self.config.epsilon:
            return bootstrap, "bootstrap"
        return self.policy.choose_with_mode(state, actions, self.rng)

    def _remove_link(self, link: Link) -> None:
        if self.candidates.remove(link):
            self._episode.stats.links_removed += 1
            obs.inc("alex.links.removed")
        self.confirmed.discard(link)
        if self.config.use_blacklist:
            self.blacklist.add(link)
            tracer = trace.active()
            if tracer is not None:
                tracer.event("alex.blacklist.insert", link=str(link))
        for state_action in sorted(
            self.ledger.generators_of(link),
            key=lambda sa: (sa.state.left.value, sa.state.right.value,
                            sa.action[0].value, sa.action[1].value),
        ):
            negative_count = self.ledger.record_negative(state_action)
            if self.config.use_rollback:
                self._maybe_rollback(state_action, negative_count)

    def _maybe_rollback(self, state_action: StateAction, negative_count: int) -> None:
        """Undo a state-action pair whose generated links attract mostly
        negative feedback (Section 6.3). The trigger looks at the feedback
        *received* on the pair's links — enough negatives, and a negative
        share of that feedback above the configured fraction. Rolled-back
        links are NOT blacklisted unless they individually received
        negative feedback."""
        if negative_count < self.config.rollback_min_negatives:
            return
        if not self.ledger.generated_by(state_action):
            return
        if (
            self.ledger.negative_feedback_fraction(state_action)
            < self.config.rollback_negative_fraction
        ):
            return
        links = self.ledger.forget_pair(state_action)
        removed = 0
        for link in links:
            if link in self.confirmed:
                continue
            if self.candidates.remove(link):
                removed += 1
        self._episode.stats.rollbacks += 1
        self._episode.stats.links_removed += removed
        obs.inc("alex.rollbacks")
        if removed:
            obs.inc("alex.links.removed", removed)
        tracer = trace.active()
        if tracer is not None:
            tracer.event(
                "alex.rollback.apply",
                state=str(state_action.state),
                feature=f"{state_action.action[0]} {state_action.action[1]}",
                links_forgotten=sorted(str(link) for link in links),
                links_removed=removed,
                negatives=negative_count,
            )

    # ------------------------------------------------------------------ #
    # Episode boundary (policy improvement)
    # ------------------------------------------------------------------ #

    @property
    def current_episode_size(self) -> int:
        return self._episode.feedback_count

    def episode_full(self) -> bool:
        return self._episode.feedback_count >= self.config.episode_size

    def end_episode(self) -> EpisodeStats:
        """Improve the policy at every state acted on this episode and
        evaluate convergence; starts the next episode."""
        # deterministic order: set iteration is hash-salted per process
        for state in sorted(
            self._episode.acted_states(), key=lambda l: (l.left.value, l.right.value)
        ):
            feature_set = self.space.feature_set(state)
            if feature_set is None:
                continue
            actions = available_actions(feature_set)
            greedy = self.values.greedy_action(state, actions)
            if greedy is not None:
                self.policy.improve(state, greedy)

        snapshot = self.candidates.snapshot()
        stats = self._episode.stats
        self.episode_history.append(stats)
        index = len(self.episode_history)
        if snapshot == self._last_snapshot:
            self._unchanged_streak += 1
        else:
            self._unchanged_streak = 0
        if (
            self._unchanged_streak >= self.config.convergence_patience
            and self.converged_at is None
        ):
            self.converged_at = index
        if (
            self.relaxed_converged_at is None
            and change_fraction(self._last_snapshot, snapshot)
            < self.config.relaxed_change_threshold
        ):
            self.relaxed_converged_at = index
        self._last_snapshot = snapshot
        self._episode = Episode(index=index + 1)
        obs.inc("alex.episodes")
        obs.set_gauge("alex.candidates.size", len(self.candidates))
        obs.set_gauge("alex.blacklist.size", len(self.blacklist))
        tracer = trace.active()
        if tracer is not None:
            tracer.event(
                "alex.episode.end",
                index=index,
                feedback=stats.feedback_count,
                discovered=stats.links_discovered,
                removed=stats.links_removed,
                rollbacks=stats.rollbacks,
                candidates=len(self.candidates),
                converged=self.converged,
            )
        slog = slowlog.active()
        if slog is not None:
            slog.record(
                "episode",
                f"{self.name}#{index}",
                time.perf_counter() - self._episode_started,
                detail={
                    "feedback": stats.feedback_count,
                    "discovered": stats.links_discovered,
                    "removed": stats.links_removed,
                    "rollbacks": stats.rollbacks,
                    "candidates": len(self.candidates),
                },
            )
        self._episode_started = time.perf_counter()
        return stats

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def health(self, graphs: dict | None = None) -> dict:
        """A machine-readable snapshot of engine and runtime health.

        Aggregates learner progress, worker-pool liveness (probed without
        spawning processes), cache pressure (plan cache + similarity
        caches), trace-ring drops, reporter and slowlog state, and — when
        ``graphs`` (name → :class:`~repro.rdf.graph.Graph`) is passed —
        dictionary growth per graph. ``status`` is ``"degraded"`` when the
        pool has fallen back in-process, the trace ring dropped events, or
        the reporter thread errored; ``"ok"`` otherwise. Read-only: calling
        it changes no engine or pool state.
        """
        from repro.core.workers import peek_shared_pool
        from repro.similarity.prepared import cache_info
        from repro.sparql.prepared import plan_cache_info

        pool = peek_shared_pool()
        pool_health: dict = {"spawned": pool is not None}
        if pool is not None:
            pool_health.update(pool.stats())

        tracer = trace.active()
        trace_health: dict = {"installed": tracer is not None}
        if tracer is not None:
            payload = tracer.payload()
            trace_health["buffered"] = len(payload["records"])
            trace_health["dropped"] = payload["dropped"]

        reporter = self._reporter
        reporter_health = {
            "configured": self._reporting,
            "running": reporter is not None and reporter.running,
            "samples_written": reporter.samples_written if reporter is not None else 0,
            "path": self.config.report_path,
            "last_error": (
                repr(reporter.last_error)
                if reporter is not None and reporter.last_error is not None
                else None
            ),
        }

        slog = slowlog.active()
        slowlog_health: dict = {"enabled": slog is not None}
        if slog is not None:
            slowlog_health.update(
                threshold=slog.threshold,
                capacity=slog.capacity,
                entries=len(slog),
                recorded=slog.recorded,
            )

        dictionaries = {}
        for name, graph in (graphs or {}).items():
            dictionaries[name] = {
                "terms": len(graph.dictionary),
                "triples": len(graph),
                "version": graph.version,
            }

        degraded = (
            pool_health.get("fallbacks", 0) > 0
            or trace_health.get("dropped", 0) > 0
            or reporter_health["last_error"] is not None
        )
        return {
            "status": "degraded" if degraded else "ok",
            "engine": {
                "name": self.name,
                "closed": self._closed,
                "episodes": self.episodes_completed,
                "converged": self.converged,
                "converged_at": self.converged_at,
                "relaxed_converged_at": self.relaxed_converged_at,
                "candidates": len(self.candidates),
                "confirmed": len(self.confirmed),
                "blacklist": len(self.blacklist),
            },
            "pool": pool_health,
            "caches": {
                "plan_cache": plan_cache_info(),
                "similarity": cache_info(),
            },
            "trace": trace_health,
            "reporter": reporter_health,
            "slowlog": slowlog_health,
            "dictionaries": dictionaries,
        }

    # ------------------------------------------------------------------ #
    # Persistence (the stable public surface; see repro.core.persistence)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Engine state as a JSON-serializable dict."""
        from repro.core import persistence

        return persistence.engine_to_dict(self)

    @classmethod
    def from_dict(cls, space: FeatureSpace, state: dict) -> "AlexEngine":
        """Rebuild an engine from :meth:`to_dict` output and a fresh space."""
        from repro.core import persistence

        return persistence.engine_from_dict(space, state)

    def save(self, path: str) -> None:
        """Write engine state to a JSON file."""
        from repro.core import persistence

        persistence.engine_save(self, path)

    @classmethod
    def load(cls, space: FeatureSpace, path: str) -> "AlexEngine":
        """Read engine state from a JSON file written by :meth:`save`."""
        from repro.core import persistence

        return persistence.engine_load(space, path)

    def __repr__(self):
        return (
            f"<AlexEngine {self.name!r}: {len(self.candidates)} candidates, "
            f"{self.episodes_completed} episodes"
            + (", converged" if self.converged else "")
            + ">"
        )
