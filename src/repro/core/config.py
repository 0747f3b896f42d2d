"""Configuration for the ALEX engine, with paper defaults (Section 7.1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class AlexConfig:
    """All tunables of ALEX in one validated, immutable bundle.

    Defaults follow the paper's experimental setup: step size 0.05, feature
    threshold θ = 0.3, at most 100 policy-evaluation/improvement iterations,
    relaxed convergence below 5% change, blacklist and rollback enabled.
    ``episode_size`` is workload-dependent (1000 in batch mode, 10 in the
    specific-domain setting) so it has no hidden default here — callers set
    it explicitly, as the paper does per experiment.
    """

    episode_size: int
    step_size: float = 0.05
    epsilon: float = 0.1
    theta: float = 0.3
    positive_reward: float = 1.0
    negative_reward: float = -1.0
    max_episodes: int = 100
    relaxed_change_threshold: float = 0.05
    convergence_patience: int = 1
    use_blacklist: bool = True
    use_rollback: bool = True
    rollback_min_negatives: int = 5
    rollback_negative_fraction: float = 0.8
    use_distinctiveness: bool = True
    distinctiveness_min_negatives: int = 10
    distinctiveness_negative_fraction: float = 0.85
    seed: int = 0
    #: Sampling interval (seconds) of the background telemetry
    #: :class:`~repro.obs.Reporter`; 0 (default) disables reporting.
    #: Both ``report_interval`` > 0 and ``report_path`` must be set for the
    #: engine to start a reporter (lazily, on first feedback).
    report_interval: float = 0.0
    #: JSONL sink the reporter appends interval samples to; None disables.
    report_path: str | None = None

    def __post_init__(self):
        if self.episode_size < 1:
            raise ConfigError(f"episode_size must be >= 1, got {self.episode_size}")
        if not (0.0 < self.step_size <= 0.5):
            raise ConfigError(f"step_size must be in (0, 0.5], got {self.step_size}")
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")
        if self.positive_reward <= 0.0:
            raise ConfigError("positive_reward must be positive")
        if self.negative_reward >= 0.0:
            raise ConfigError("negative_reward must be negative")
        if self.max_episodes < 1:
            raise ConfigError(f"max_episodes must be >= 1, got {self.max_episodes}")
        if not (0.0 < self.relaxed_change_threshold < 1.0):
            raise ConfigError("relaxed_change_threshold must be in (0, 1)")
        if self.convergence_patience < 1:
            raise ConfigError("convergence_patience must be >= 1")
        if self.rollback_min_negatives < 1:
            raise ConfigError("rollback_min_negatives must be >= 1")
        if not (0.0 < self.rollback_negative_fraction <= 1.0):
            raise ConfigError("rollback_negative_fraction must be in (0, 1]")
        if self.distinctiveness_min_negatives < 1:
            raise ConfigError("distinctiveness_min_negatives must be >= 1")
        if not (0.0 < self.distinctiveness_negative_fraction <= 1.0):
            raise ConfigError("distinctiveness_negative_fraction must be in (0, 1]")
        if self.report_interval < 0.0:
            raise ConfigError(
                f"report_interval must be >= 0, got {self.report_interval}"
            )

    def replace(self, **changes) -> "AlexConfig":
        """A copy with some fields changed (dataclasses.replace wrapper)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


#: Paper batch-mode default (Section 7.2.1): 1000 feedback items/episode.
BATCH_EPISODE_SIZE = 1000

#: Paper specific-domain default (Section 7.2.2): 10 feedback items/episode.
DOMAIN_EPISODE_SIZE = 10
