"""Simulator and decision library for satellite edge offloading and caching.

The package models a vehicle streaming a chain of sub-tasks through a
low-orbit satellite with an attached edge server: each sub-task is either
run locally or offloaded, and each produced content item is either kept in
the satellite cache or dropped. An exact solver labels episodes with
minimum-cost action matrices, a small feed-forward policy imitates those
labels, and rule baselines provide reference points.
"""

from .config import (ConfigError, ScenarioConfig, SimConfig, TrainConfig,
                     default_config, load_config, validate_config)
from .evaluator import (ActionMatrix, EpisodeState, InfeasibleActionError,
                        PriceVector, completion_time, reward)
from .oracle import Demonstration, Demonstrations, build_dataset, solve_optimal
from .policies import baseline_policy
from .scenario import episode_state, episode_states, episode_stream

__version__ = "0.1.0"

__all__ = [
    "ActionMatrix",
    "ConfigError",
    "Demonstration",
    "Demonstrations",
    "EpisodeState",
    "InfeasibleActionError",
    "PriceVector",
    "ScenarioConfig",
    "SimConfig",
    "TrainConfig",
    "baseline_policy",
    "build_dataset",
    "completion_time",
    "default_config",
    "episode_state",
    "episode_states",
    "episode_stream",
    "load_config",
    "reward",
    "solve_optimal",
    "validate_config",
    "__version__",
]
