"""Heuristic baselines: offload rules, retention-driven caching, projection.

A baseline is an offload rule crossed with a caching rule, built for
Tables blocks of states: baseline_actions returns one row of PAIRS
indices per state. Offload proposals may be infeasible (total offloading
proposes uploading a Download, say); projection snaps every pair to the
nearest feasible one by Hamming distance, one NEAR[pattern, pair] lookup
per block. Caching bits come from replaying the episode's outputs
through an eviction policy and keeping whatever survives; projection
alone sets the bits that coverage expiry forces. The greedy rule reads
the block's cost table. The retention replay is the one step that runs
per state, once per (block, cache kind), whichever baselines share it.
project_feasible is the one-state form of the projection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .caching import apply_caching_action
from .evaluator import (NEAR, ActionMatrix, EpisodeState, PriceVector, Tables, at_hits,
                        pair_index)

# le / to / go: local, total offloading, greedy; mrc / mpc: most recent / popular
BASELINE_PAIRS = (  # in report order
    ("to", "mrc"), ("le", "mrc"), ("to", "mpc"),
    ("le", "mpc"), ("go", "mrc"), ("go", "mpc"),
)


def baseline_name(offload_kind: str, cache_kind: str) -> str:
    return f"{offload_kind}-{cache_kind}"


def baseline_cache(kind: str, block: Tables) -> np.ndarray:
    """Caching bits from retention, N x V: keep what the eviction policy keeps.

    Every produced output is offered to the cache in chain order against
    the episode's starting placement; a_ch[v] = 1 iff sub-task v's rank is
    still resident afterwards. Coverage is not consulted: projection pins
    the bit of a sub-task whose result must be cached. The replay runs
    once per (block, kind); later calls read block.retained. The bits are
    read from the replay's final placement: every rank read there was
    offered, and so range-checked, by the replay.
    """
    bits = block.retained.get(kind)
    if bits is None:
        rows = []
        for state in block.states:
            placement = apply_caching_action(state.cache, state.task, (1,) * len(state.task),
                                             kind).placement
            rows.append([st.d_out > 0.0 and placement[st.out_rank - 1] == 1
                         for st in state.task])
        bits = block.retained[kind] = np.array(rows, dtype=np.intp).reshape(len(block), -1)
    return bits


def baseline_actions(offload_kind: str, cache_kind: str, blocks: Sequence[Tables],
                     prices: PriceVector) -> np.ndarray:
    """Every state's baseline action as N x V PAIRS indices: propose offload
    bits, cache by retention, project onto the feasible pairs."""
    if offload_kind not in ("le", "to", "go"):
        raise ValueError(f"unknown offload baseline {offload_kind!r}")
    actions = []
    for block in blocks:
        if offload_kind == "go":
            # greedy: per sub-task, the offload bit of the pair with the smallest
            # immediate cost (+inf when infeasible); ties prefer the smaller pair
            offload = at_hits(block.costs(prices), block.hits).argmin(axis=2) >> 1
        else:
            offload = int(offload_kind == "to")
        cache = baseline_cache(cache_kind, block)
        actions.append(NEAR[block.pattern, pair_index(offload, cache)])
    return np.concatenate(actions)


def project_feasible(pairs: tuple[tuple[int, int], ...],
                     state: EpisodeState) -> ActionMatrix:
    """Snap each proposed pair to its feasible set at minimum Hamming distance.

    Ties go to the lexicographically smaller feasible pair. Feasible
    proposals pass through untouched, so projection is idempotent.
    """
    if len(pairs) != len(state.task):
        raise ValueError("proposal length must match the task")
    return ActionMatrix.from_picks(
        NEAR[Tables([state]).pattern[0], [pair_index(of, ch) for of, ch in pairs]].tolist())
