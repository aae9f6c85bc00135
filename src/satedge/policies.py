"""Heuristic baselines: offload rules, retention-driven caching, projection.

A baseline is an offload rule crossed with a caching rule. Offload
proposals may be infeasible (total offloading proposes uploading a
Download, say); project_feasible snaps every pair to the nearest
feasible one by Hamming distance. Caching bits come from replaying the
episode's outputs through an eviction policy and keeping whatever
survives; projection alone sets the bits that coverage expiry forces.
The greedy rule reads the state's memoised cost table, and each cache
kind is replayed once per state, whichever baselines share it.
"""

from __future__ import annotations

from .caching import apply_caching_action, is_hit
from .evaluator import (ActionMatrix, EpisodeState, PriceVector, cost_rows,
                        nearest_feasible)

# le / to / go: local, total offloading, greedy; mrc / mpc: most recent / popular
BASELINE_PAIRS = (  # in report order
    ("to", "mrc"), ("le", "mrc"), ("to", "mpc"),
    ("le", "mpc"), ("go", "mrc"), ("go", "mpc"),
)


def baseline_name(offload_kind: str, cache_kind: str) -> str:
    return f"{offload_kind}-{cache_kind}"


def baseline_offload(kind: str, state: EpisodeState,
                     prices: PriceVector) -> tuple[int, ...]:
    """Proposed offload bits; le and to may need projection afterwards."""
    n = len(state.task)
    if kind == "le":
        return (0,) * n
    if kind == "to":
        return (1,) * n
    if kind != "go":
        raise ValueError(f"unknown offload baseline {kind!r}")
    # greedy: per sub-task, the feasible pair with the smallest immediate
    # cost contribution; ties prefer the smaller pair (the first argmin)
    return tuple(feas[row.index(min(row))][0]
                 for feas, row in zip(state.feasible, cost_rows(state, prices)))


def baseline_cache(kind: str, state: EpisodeState) -> tuple[int, ...]:
    """Caching bits from retention: keep what the eviction policy keeps.

    Every produced output is offered to the cache in chain order against
    the episode's starting placement; a_ch[v] = 1 iff sub-task v's rank is
    still resident afterwards. Coverage is not consulted: project_feasible
    pins the bit of a sub-task whose result must be cached. The replay
    runs once per (state, kind); later calls read state.retained.
    """
    bits = state.retained.get(kind)
    if bits is None:
        cache = apply_caching_action(state.cache, state.task, (1,) * len(state.task), kind)
        bits = state.retained[kind] = tuple(
            int(st.d_out > 0.0 and is_hit(cache, st.out_rank)) for st in state.task)
    return bits


def project_feasible(pairs: tuple[tuple[int, int], ...],
                     state: EpisodeState) -> ActionMatrix:
    """Snap each proposed pair to its feasible set at minimum Hamming distance.

    Ties go to the lexicographically smaller feasible pair. Feasible
    proposals pass through untouched, so projection is idempotent.
    """
    if len(pairs) != len(state.task):
        raise ValueError("proposal length must match the task")
    return ActionMatrix.from_pairs(
        [nearest_feasible(feas, prop) for feas, prop in zip(state.feasible, pairs)])


def baseline_policy(offload_kind: str, cache_kind: str, state: EpisodeState,
                    prices: PriceVector) -> ActionMatrix:
    """Full baseline pipeline: propose, cache by retention, project."""
    a_of = baseline_offload(offload_kind, state, prices)
    a_ch = baseline_cache(cache_kind, state)
    return project_feasible(tuple(zip(a_of, a_ch)), state)
