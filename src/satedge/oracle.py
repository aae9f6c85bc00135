"""Exact per-episode optimum and demonstration dataset construction.

The reward is a sum of per-sub-task terms that nothing couples (cache
bits face no capacity limit), so the optimum over the pre-classified
joint action space is found from one cost table per sub-task without
forming the joint product. The result is the one an exhaustive
enumeration returns: the total is the chain-order left fold of the
picked costs, so it agrees bit-for-bit with evaluator.reward, and ties,
including ties that float rounding creates in the total, fall to the
lexicographically smallest pick (prefer local, prefer not caching).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ScenarioConfig, scenario_hash
from .evaluator import ActionMatrix, EpisodeState, PriceVector, cost_rows
from .neural import LAYOUT_VERSION, FeatureScaler, encode_state, feature_dim
from .scenario import episode_stream, prices_from


@dataclass(frozen=True)
class Demonstration:
    episode_id: int
    features: np.ndarray  # encoded state, layout v1
    labels: tuple[int, ...]  # blocked bits: offload then cache
    opt_reward: float


def lexicographic_argmin(tables: Sequence[Sequence[float]],
                         ) -> tuple[tuple[int, ...], float]:
    """First minimum, in row-major order, of the left-fold sum over tables.

    Equals ``np.argmin`` of the iterated ``np.add.outer`` of the tables
    (unravelled) and the total at that index, in O(sum(len) * len(tables))
    additions. Round-to-nearest addition is monotone in each operand, so
    the fold of the per-table minima is the minimum total, and a prefix
    can still reach it exactly when the prefix completed with the
    remaining minima does. That completion equals the optimum as soon as
    one of its partial sums equals the optimum's partial sum at the same
    position, since the remaining additions then coincide. Tables must be
    non-empty and hold no NaN.
    """
    mins = [min(t) for t in tables]
    target = list(itertools.accumulate(mins))  # partial sums of the optimum

    def reaches_optimum(v: int, acc: float) -> bool:
        if acc == target[v]:
            return True
        for k in range(v + 1, len(tables)):
            acc += mins[k]
            if acc == target[k]:
                return True
        return False

    picks: list[int] = []
    total = 0.0
    for v, table in enumerate(tables):
        # the fold starts at the first cost itself, as np.add.outer does
        i = next(i for i, cost in enumerate(table)
                 if reaches_optimum(v, total + cost if v else cost))
        picks.append(i)
        total = total + table[i] if v else table[i]
    return tuple(picks), float(total)


def solve_optimal(state: EpisodeState, prices: PriceVector) -> tuple[ActionMatrix, float]:
    """Minimum-reward action over the pre-classified joint action space."""
    picks, value = lexicographic_argmin(cost_rows(state, prices))
    return ActionMatrix.from_pairs([f[i] for f, i in zip(state.feasible, picks)]), value


def label_states(states: Iterable[EpisodeState], prices: PriceVector,
                 scaler: FeatureScaler) -> list[Demonstration]:
    """Solve and encode pre-drawn states; episode ids count from 0."""
    demos = []
    for i, state in enumerate(states):
        action, value = solve_optimal(state, prices)
        demos.append(Demonstration(episode_id=i,
                                   features=encode_state(state, scaler),
                                   labels=action.bits(), opt_reward=value))
    return demos


def build_dataset(cfg: ScenarioConfig, n: int, seed: int) -> list[Demonstration]:
    """Generate and label n episodes from the seeded stream."""
    states = (state for _, state in episode_stream(cfg, seed, n))
    return label_states(states, prices_from(cfg), FeatureScaler.from_scenario(cfg))


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
        feats = ",".join(map(repr, d.features.tolist()))
        bits = "".join(str(b) for b in d.labels)
        lines.append(f"{d.episode_id},{feats},{bits},{d.opt_reward!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_dataset(path: str | Path) -> tuple[dict[str, str], list[Demonstration]]:
    """Parse a dataset file; any malformed header or record raises ValueError."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#satedge-dataset v1 "):
        raise ValueError(f"{path}: not a v1 dataset file")
    header = dict(kv.split("=", 1) for kv in lines[0].split()[2:])
    try:
        layout, n_subtasks, n_features = (
            int(header[key]) for key in ("layout", "subtasks", "features"))
    except KeyError as exc:
        raise ValueError(f"{path}: dataset header lacks {exc.args[0]}=") from None
    if layout != LAYOUT_VERSION:
        raise ValueError(f"{path}: feature layout v{layout} unsupported")
    if n_subtasks < 1 or n_features != feature_dim(n_subtasks):
        raise ValueError(f"{path}: header subtasks={n_subtasks} and "
                         f"features={n_features} disagree with layout v{layout}")
    n_bits = 2 * n_subtasks
    demos = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != n_features + 3:
            raise ValueError(f"{path}: bad record width {len(parts)}")
        bits = parts[-2]
        if len(bits) != n_bits or set(bits) - {"0", "1"}:
            raise ValueError(f"{path}: bad label field {bits!r}")
        features = np.array([float(v) for v in parts[1:-2]], dtype=np.float64)
        opt_reward = float(parts[-1])
        if not (np.isfinite(features).all() and math.isfinite(opt_reward)):
            raise ValueError(f"{path}: non-finite value in record {parts[0]!r}")
        demos.append(Demonstration(
            episode_id=int(parts[0]), features=features,
            labels=tuple(int(b) for b in bits), opt_reward=opt_reward))
    return header, demos
