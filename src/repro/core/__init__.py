"""ALEX core: the reinforcement-learning link explorer (the paper's contribution)."""

from repro.core.config import BATCH_EPISODE_SIZE, DOMAIN_EPISODE_SIZE, AlexConfig
from repro.core.engine import AlexEngine
from repro.core.episode import Episode, EpisodeStats
from repro.core.parallel import PartitionedAlex
from repro.core.persistence import (
    engine_from_dict,
    engine_load,
    engine_save,
    engine_to_dict,
)
from repro.core.policy import EpsilonGreedyPolicy
from repro.core.provenance import ExplorationLedger
from repro.core.reporting import PolicyReport, policy_report, q_value_table
from repro.core.state import ExplorationAction, StateAction, available_actions
from repro.core.value import ActionValueTable

__all__ = [
    "ActionValueTable",
    "AlexConfig",
    "AlexEngine",
    "BATCH_EPISODE_SIZE",
    "DOMAIN_EPISODE_SIZE",
    "Episode",
    "EpisodeStats",
    "EpsilonGreedyPolicy",
    "ExplorationAction",
    "ExplorationLedger",
    "PartitionedAlex",
    "PolicyReport",
    "StateAction",
    "available_actions",
    "engine_from_dict",
    "engine_load",
    "engine_save",
    "engine_to_dict",
    "policy_report",
    "q_value_table",
]
