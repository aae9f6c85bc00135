"""Exhaustive per-episode optimum and demonstration dataset construction.

The optimum enumerates the Cartesian product of per-sub-task feasible
sets. Because the reward decomposes into per-sub-task contributions, the
enumeration is realized as an iterated outer sum over small cost tables;
the additions happen in the same left-to-right order a sequential loop
would use, so totals agree bit-for-bit with evaluator.reward, and the
first argmin in row-major order is exactly the lexicographic tie-break
(prefer local, prefer not caching).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ScenarioConfig, scenario_hash
from .evaluator import (ActionMatrix, EpisodeState, PAIRS, PriceVector,
                        feasible_actions, hit_flags, reward, subtask_cost)
from .neural import LAYOUT_VERSION, FeatureScaler, encode_state, feature_dim
from .scenario import episode_stream, prices_from

DEFAULT_ENUM_LIMIT = 1_000_000


class ActionSpaceLimitError(RuntimeError):
    """Joint action space too large to enumerate."""


@dataclass(frozen=True)
class Demonstration:
    episode_id: int
    features: np.ndarray  # encoded state, layout v1
    labels: tuple[int, ...]  # blocked bits: offload then cache
    opt_reward: float


def solve_optimal(state: EpisodeState, prices: PriceVector,
                  limit: int = DEFAULT_ENUM_LIMIT) -> tuple[ActionMatrix, float]:
    """Minimum-reward action over the pre-classified joint action space."""
    feas = [feasible_actions(st, state) for st in state.task]
    total = 1
    for f in feas:
        total *= len(f)
        if total > limit:
            raise ActionSpaceLimitError(
                f"joint action space exceeds limit {limit}")
    hits = hit_flags(state)
    tables = [
        np.array([subtask_cost(st, of, ch, hit, state, prices) for of, ch in f])
        for st, f, hit in zip(state.task, feas, hits)
    ]
    acc = tables[0]
    for t in tables[1:]:
        acc = np.add.outer(acc, t)
    flat = acc.reshape(-1)
    best = int(np.argmin(flat))
    picks = np.unravel_index(best, acc.shape)
    pairs = [feas[v][int(i)] for v, i in enumerate(picks)]
    action = ActionMatrix(offload=tuple(p[0] for p in pairs),
                          cache=tuple(p[1] for p in pairs))
    return action, float(flat[best])


def solve_full_grid(state: EpisodeState, prices: PriceVector,
                    ) -> tuple[ActionMatrix, float]:
    """Reference optimum from the raw 4^|V| grid, infeasible combos discarded.

    Deliberately naive (re-scores every combination through reward) so it
    shares nothing with solve_optimal beyond the evaluator. Only sane for
    small |V|.
    """
    feas = [set(feasible_actions(st, state)) for st in state.task]
    best: tuple[ActionMatrix, float] | None = None
    for combo in itertools.product(PAIRS, repeat=len(state.task)):
        if any(pair not in feas[v] for v, pair in enumerate(combo)):
            continue
        action = ActionMatrix(offload=tuple(p[0] for p in combo),
                              cache=tuple(p[1] for p in combo))
        value = reward(state, action, prices)
        if best is None or value < best[1]:
            best = (action, value)
    if best is None:
        raise ActionSpaceLimitError("no feasible action exists for this episode")
    return best


def build_dataset(cfg: ScenarioConfig, n: int, seed: int,
                  scaler: FeatureScaler | None = None) -> list[Demonstration]:
    """Generate and label n episodes from the seeded stream."""
    scaler = scaler or FeatureScaler.from_scenario(cfg)
    prices = prices_from(cfg)
    demos = []
    for i, state in episode_stream(cfg, seed, n):
        action, value = solve_optimal(state, prices)
        demos.append(Demonstration(
            episode_id=i,
            features=encode_state(state, scaler),
            labels=action.bits(),
            opt_reward=value))
    return demos


# ---------------------------------------------------------------------------
# dataset file format: one header line, then one comma-separated record per
# episode: id, features..., label bitstring, optimal reward


def write_dataset(path: str | Path, demos: Iterable[Demonstration],
                  cfg: ScenarioConfig) -> None:
    demos = list(demos)
    n_features = feature_dim(cfg.num_subtasks)
    lines = [
        f"#satedge-dataset v1 config={scenario_hash(cfg)} "
        f"layout={LAYOUT_VERSION} subtasks={cfg.num_subtasks} features={n_features}"
    ]
    for d in demos:
        if d.features.shape != (n_features,):
            raise ValueError(f"episode {d.episode_id}: feature shape mismatch")
        feats = ",".join(repr(float(v)) for v in d.features)
        bits = "".join(str(b) for b in d.labels)
        lines.append(f"{d.episode_id},{feats},{bits},{d.opt_reward!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_dataset(path: str | Path) -> tuple[dict[str, str], list[Demonstration]]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#satedge-dataset v1 "):
        raise ValueError(f"{path}: not a v1 dataset file")
    header = dict(kv.split("=", 1) for kv in lines[0].split()[2:])
    n_features = int(header["features"])
    n_bits = 2 * int(header["subtasks"])
    if int(header["layout"]) != LAYOUT_VERSION:
        raise ValueError(f"{path}: feature layout v{header['layout']} unsupported")
    demos = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != n_features + 3:
            raise ValueError(f"{path}: bad record width {len(parts)}")
        bits = parts[-2]
        if len(bits) != n_bits or set(bits) - {"0", "1"}:
            raise ValueError(f"{path}: bad label field {bits!r}")
        demos.append(Demonstration(
            episode_id=int(parts[0]),
            features=np.array([float(v) for v in parts[1:-2]], dtype=np.float64),
            labels=tuple(int(b) for b in bits),
            opt_reward=float(parts[-1])))
    return header, demos
