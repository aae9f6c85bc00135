"""Heuristic baselines: offload rules, retention-driven caching, projection.

A baseline is an offload rule crossed with a caching rule, built for
Tables blocks of states: baseline_actions returns one row of PAIRS
indices per state. Offload proposals may be infeasible (total offloading
proposes uploading a Download, say); projection snaps every pair to the
nearest feasible one by Hamming distance, one NEAR[pattern, pair] lookup
per block. Caching bits come from replaying the episodes' outputs
through an eviction policy and keeping whatever survives; projection
alone sets the bits that coverage expiry forces. The greedy rule reads
the block's cost table. The retention replay runs on the block's cache
arrays, one masked offer step per sub-task for all its states at once,
once per (block, cache kind), whichever baselines share it; it builds
no episode object. project_feasible is the one-state form of the
projection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .caching import mpc_keys
from .evaluator import (NEAR, ActionMatrix, EpisodeState, PriceVector, Tables, at_hits,
                        pair_index)

# le / to / go: local, total offloading, greedy; mrc / mpc: most recent / popular
BASELINE_PAIRS = (  # in report order
    ("to", "mrc"), ("le", "mrc"), ("to", "mpc"),
    ("le", "mpc"), ("go", "mrc"), ("go", "mpc"),
)


_NEVER = np.iinfo(np.intp).max  # the eviction key of a rank not held


def baseline_name(offload_kind: str, cache_kind: str) -> str:
    return f"{offload_kind}-{cache_kind}"


def _mpc_keys(delta: np.ndarray, ranks: int) -> np.ndarray:
    """N x R mpc eviction keys: each rank's place in its row's order of
    caching.mpc_keys, least popular first, so the held rank of least key
    is evict_mpc's victim. A drawn block's rows share one skew."""
    keys = np.empty((len(delta), ranks), dtype=np.intp)
    for skew in np.unique(delta).tolist():
        order = sorted(range(ranks), key=mpc_keys(skew, ranks).__getitem__)
        keys[delta == skew] = np.argsort(order)
    return keys


def baseline_cache(kind: str, block: Tables) -> np.ndarray:
    """Caching bits from retention, N x V: keep what the eviction policy keeps.

    Every produced output (d_out > 0) is offered to the cache in chain
    order against the episode's starting placement; a_ch[v] = 1 iff
    sub-task v's rank is still resident afterwards. Coverage is not
    consulted: projection pins the bit of a sub-task whose result must be
    cached. The replay runs on the block's cache arrays, once per (block,
    kind), with evict_mrc's and evict_mpc's rules: an offer larger than
    the capacity leaves its row, clock included, unchanged; an accepted
    one stores its size and stamps the clock; then, while a row holds more
    than its capacity, its held rank of least key goes (mrc: recency;
    mpc: _mpc_keys). Held bytes are re-summed each pass as a cumulative
    sum along ranks, the left fold in rank order the per-state offers
    take. Later calls read block.retained. ValueError names the first
    state and sub-task that offers a rank outside 1..R.
    """
    bits = block.retained.get(kind)
    if bits is not None:
        return bits
    if kind not in ("mrc", "mpc"):
        raise ValueError(f"unknown eviction policy {kind!r}")
    rank, d_out, capacity = block.rank, block.d_out, block.capacity
    offered = d_out > 0.0  # never a zero or NaN output
    ranks = block.placement.shape[1] - 1
    bad = offered & ((rank < 1) | (rank > ranks))
    if bad.any():
        n, v = np.argwhere(bad)[0].tolist()
        raise ValueError(f"state {n}, sub-task {v}: offers output rank {rank[n, v].item()} "
                         f"outside 1..{ranks}, its cache's ranks")
    # column r for rank r, as in placement; column 0 is never held
    held = block.placement.copy()
    sizes = np.zeros(held.shape)
    sizes[:, 1:] = block.sizes
    keys = np.zeros(held.shape, dtype=np.intp)
    keys[:, 1:] = block.recency if kind == "mrc" else _mpc_keys(block.delta, ranks)
    clock = block.clock.copy()
    for v in range(rank.shape[1]):
        at = np.flatnonzero(offered[:, v] & (d_out[:, v] <= capacity))
        r = rank[at, v]
        sizes[at, r], held[at, r] = d_out[at, v], True
        if kind == "mrc":
            keys[at, r] = clock[at]
        clock[at] += 1
        while len(at):
            at = at[np.cumsum(np.where(held[at], sizes[at], 0.0), axis=1)[:, -1]
                    > capacity[at]]
            victim = np.where(held[at], keys[at], _NEVER).argmin(axis=1)
            held[at, victim] = False
    bits = offered & np.take_along_axis(held, np.where(offered, rank, 0), axis=1)
    bits = block.retained[kind] = bits.astype(np.intp)
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
