"""Heuristic baselines: offload rules, retention-driven caching, projection.

A baseline is an offload rule crossed with a caching rule. Offload
proposals may be infeasible (total offloading proposes uploading a
Download, say); project_feasible snaps every pair to the nearest
feasible one by Hamming distance. Caching bits come from replaying the
episode's outputs through an eviction policy and keeping whatever
survives, except where coverage expiry forces the bit to 1.
"""

from __future__ import annotations

from .caching import apply_caching_action, is_hit
from .evaluator import (ActionMatrix, EpisodeState, PriceVector,
                        feasible_actions, hit_flags, nearest_feasible, subtask_cost)

OFFLOAD_KINDS = ("le", "to", "go")  # local execution, total offloading, greedy
CACHE_KINDS = ("mrc", "mpc")  # most-recent-contents, most-popular-contents

# comparison order used by reports
BASELINE_PAIRS = (
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
    # greedy: per sub-task, in chain order, the feasible pair with the
    # smallest immediate cost contribution; ties prefer the smaller pair
    hits = hit_flags(state)
    bits = []
    for st, hit in zip(state.task, hits):
        best_pair, best_cost = None, None
        for pair in feasible_actions(st, state):
            cost = subtask_cost(st, pair[0], pair[1], hit, state, prices)
            if best_cost is None or cost < best_cost:
                best_pair, best_cost = pair, cost
        bits.append(best_pair[0])
    return tuple(bits)


def baseline_cache(kind: str, state: EpisodeState) -> tuple[int, ...]:
    """Caching bits from retention: keep what the eviction policy keeps.

    Every produced output is offered to the cache in chain order against
    the episode's starting placement; a_ch[v] = 1 iff sub-task v's rank is
    still resident afterwards. Sub-tasks whose feasible set forces caching
    (coverage expiry) get 1 regardless of retention.
    """
    cache = apply_caching_action(state.cache, state.task, (1,) * len(state.task), kind)
    return tuple(
        int(all(ch == 1 for _, ch in feasible_actions(st, state))
            or (st.d_out > 0.0 and is_hit(cache, st.out_rank)))
        for st in state.task)


def project_feasible(pairs: tuple[tuple[int, int], ...],
                     state: EpisodeState) -> ActionMatrix:
    """Snap each proposed pair to its feasible set at minimum Hamming distance.

    Ties go to the lexicographically smaller feasible pair. Feasible
    proposals pass through untouched, so projection is idempotent.
    """
    if len(pairs) != len(state.task):
        raise ValueError("proposal length must match the task")
    chosen = [nearest_feasible(st, state, prop) for st, prop in zip(state.task, pairs)]
    return ActionMatrix(offload=tuple(p[0] for p in chosen),
                        cache=tuple(p[1] for p in chosen))


def baseline_policy(offload_kind: str, cache_kind: str, state: EpisodeState,
                    prices: PriceVector) -> ActionMatrix:
    """Full baseline pipeline: propose, cache by retention, project."""
    a_of = baseline_offload(offload_kind, state, prices)
    a_ch = baseline_cache(cache_kind, state)
    return project_feasible(tuple(zip(a_of, a_ch)), state)
