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
from .dil import action_report
from .evaluator import InfeasibleActionError, PriceVector, Tables, score
from .geometry import CoverageDomainError
from .neural import CheckpointError
from .oracle import Demonstrations, build_dataset, label_states
from .policies import baseline_actions
from .scenario import episode_blocks, make_library, prices_from

__version__ = "0.1.0"

# the block API; the one-state forms, ActionMatrix and Demonstration stay in their modules
__all__ = [
    "episode_blocks", "make_library", "prices_from", "label_states", "build_dataset",
    "baseline_actions", "score", "action_report", "Tables", "Demonstrations", "PriceVector",
    "ScenarioConfig", "SimConfig", "TrainConfig", "default_config", "load_config",
    "validate_config", "CheckpointError", "ConfigError", "CoverageDomainError",
    "InfeasibleActionError", "__version__",
]
