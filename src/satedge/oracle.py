"""Exact per-episode optimum and demonstration dataset construction.

The reward is a sum of per-sub-task terms that nothing couples (cache
bits face no capacity limit), so the optimum over the pre-classified
joint action space is found from one cost table per sub-task without
forming the joint product. The result is the one an exhaustive
enumeration returns: the total is the chain-order left fold of the
picked costs, so it agrees bit-for-bit with evaluator.reward, and ties,
including ties that float rounding creates in the total, fall to the
lexicographically smallest pick (prefer local, prefer not caching).

block_argmin applies that rule to every state of a block at once, and
label_states labels any sequence of states through it, block by block:
a stream in blocks of BLOCK_STATES, and so the carried states of a
baseline's persistent rollout; under oracle and docs, whose next state
depends on an action read from this one's labels, a rollout labels in
blocks of one. solve_optimal is block_argmin on a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ScenarioConfig, scenario_hash
from .evaluator import (PAIR_CACHE, PAIR_OFFLOAD, ActionMatrix, EpisodeState,
                        PriceVector, at_hits, blocks, table_runs)
from .neural import (LAYOUT_VERSION, FeatureScaler, canonical_int, encode_states,
                     feature_dim, stray_row)
from .scenario import episode_stream, prices_from


@dataclass(frozen=True)
class Demonstration:
    episode_id: int
    features: np.ndarray  # encoded state, layout v1
    labels: tuple[int, ...]  # blocked bits: offload then cache
    opt_reward: float


def block_argmin(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First minimum, in row-major order, of the left-fold sum over the
    tables of every row of an N x V x K cost block at once.

    Row n holds V tables of K costs, +inf marking an absent entry (an
    infeasible pair), and no NaN. Returns
    the N x V picks and the N totals: for each row, np.argmin of the
    iterated np.add.outer of its tables (unravelled) and the total at
    that index, bit for bit, each step one whole-array operation over
    the N rows. Round-to-nearest addition is monotone in each operand,
    so the fold of the per-table minima is the minimum total, and a
    prefix can still reach it exactly when the prefix completed with the
    remaining minima does: each step picks the first entry whose
    completion folds to the optimum's total.
    """
    n, num_tables, _ = costs.shape
    mins = costs.min(axis=2)
    optimum = mins[:, 0] if num_tables else np.zeros(n)
    for v in range(1, num_tables):
        optimum = optimum + mins[:, v]
    rows = np.arange(n)
    picks = np.empty((n, num_tables), dtype=np.intp)
    total = np.zeros(n)
    for v in range(num_tables):
        # the fold starts at the first cost itself, as np.add.outer does
        acc = costs[:, v] if v == 0 else total[:, None] + costs[:, v]
        completion = acc
        for k in range(v + 1, num_tables):
            completion = completion + mins[:, k, None]
        picks[:, v] = (completion == optimum[:, None]).argmax(axis=1)  # first True
        total = acc[rows, picks[:, v]]
    return picks, total


def solve_optimal(state: EpisodeState, prices: PriceVector) -> tuple[ActionMatrix, float]:
    """Minimum-reward action over the pre-classified joint action space:
    block_argmin on the state's own Tables row, a block of one.

    Each sub-task's table holds all four pairs, +inf on the infeasible
    ones, which never reach the optimum, so the picks are PAIRS indices.
    """
    table, row = state.tables
    rows = slice(row, row + 1)
    picks, values = block_argmin(at_hits(table.costs(prices)[rows], table.hits(rows, [state])))
    return ActionMatrix.from_picks(picks[0].tolist()), values.item()


def label_states(states: Iterable[EpisodeState], prices: PriceVector,
                 scaler: FeatureScaler) -> list[Demonstration]:
    """Solve and encode pre-drawn states, block by block; episode ids count from 0.

    Each block reads the Tables rows its states hold (table_runs), so a
    carried state (carry_cache) reuses its draw's row, and runs one
    block_argmin over its cost table at the states' own hits and one
    scaling call.
    """
    demos: list[Demonstration] = []
    # a stream repeats few label patterns, so its rows share one tuple per pattern
    patterns: dict[tuple[int, ...], tuple[int, ...]] = {}
    for block in blocks(states):
        (_, table, rows), = table_runs(block)  # a block is one run
        picks, values = block_argmin(at_hits(table.costs(prices)[rows],
                                             table.hits(rows, block)))
        labels = np.concatenate((PAIR_OFFLOAD[picks], PAIR_CACHE[picks]), axis=1)
        features = encode_states(block, scaler)
        for row, bits, value in zip(features, labels.tolist(), values.tolist()):
            key = tuple(bits)
            demos.append(Demonstration(episode_id=len(demos), features=row,
                                       labels=patterns.setdefault(key, key),
                                       opt_reward=value))
    return demos


def build_dataset(cfg: ScenarioConfig, n: int, seed: int) -> list[Demonstration]:
    """Generate and label n episodes from the seeded stream."""
    states = (state for _, state in episode_stream(cfg, seed, n))
    return label_states(states, prices_from(cfg), FeatureScaler.from_scenario(cfg))


# ---------------------------------------------------------------------------
# dataset file format: one header line, then one comma-separated record per
# episode: id, features..., label bitstring, optimal reward

_HEADER_KEYS = ("config", "layout", "subtasks", "features")  # after the magic, in order


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
    """Parse a dataset file in exactly the layout write_dataset writes; any
    other header or a malformed record raises ValueError. Integers must be
    spelled as str() spells them, and no field may hold an underscore or
    whitespace, which int() and float() would forgive."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#satedge-dataset v1 "):
        raise ValueError(f"{path}: not a v1 dataset file")
    tokens = [token.partition("=") for token in lines[0].split(" ")[2:]]
    if [(key, eq) for key, eq, _ in tokens] != [(key, "=") for key in _HEADER_KEYS]:
        raise ValueError(f"{path}:1: bad dataset header: expected the tokens "
                         f"{' '.join(key + '=' for key in _HEADER_KEYS)} in that order, "
                         f"got {lines[0]!r}")
    header = {key: value for key, _, value in tokens}
    try:
        layout, n_subtasks, n_features = (canonical_int(header[key])
                                          for key in _HEADER_KEYS[1:])
    except ValueError as exc:
        raise ValueError(f"{path}:1: bad dataset header: {exc}") from None
    if layout != LAYOUT_VERSION:
        raise ValueError(f"{path}: feature layout v{layout} unsupported")
    if n_subtasks < 1 or n_features != feature_dim(n_subtasks):
        raise ValueError(f"{path}: header subtasks={n_subtasks} and "
                         f"features={n_features} disagree with layout v{layout}")
    n_bits = 2 * n_subtasks
    at = stray_row(lines[1:])  # one pass over every record
    if at is not None:
        raise ValueError(f"{path}:{at + 2}: record {lines[at + 1].split(',')[0]!r}: blank, "
                         "or an underscore or whitespace in a field")
    demos = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        where = f"{path}:{lineno}: record {parts[0]!r}"
        if len(parts) != n_features + 3:
            raise ValueError(f"{where}: bad record width {len(parts)}")
        bits = parts[-2]
        if len(bits) != n_bits or set(bits) - {"0", "1"}:
            raise ValueError(f"{where}: bad label field {bits!r}")
        try:
            demo = Demonstration(
                episode_id=canonical_int(parts[0]),
                features=np.array([float(v) for v in parts[1:-2]]),
                labels=tuple(int(b) for b in bits), opt_reward=float(parts[-1]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not (np.isfinite(demo.features).all() and math.isfinite(demo.opt_reward)):
            raise ValueError(f"{where}: non-finite value")
        demos.append(demo)
    return header, demos
