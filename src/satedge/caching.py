"""On-board content cache: Zipf request popularity and two eviction policies.

The cache indexes items by popularity rank (1 = most requested). State is
immutable; every operation returns a fresh CacheState, which keeps episode
evaluation pure and makes property testing painless. The two policies
share one insert-then-evict loop and differ only in the victim's key.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

from .workload import TaskGraph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CacheState:
    sizes: tuple[float, ...]  # bytes per rank, index rank-1
    placement: tuple[int, ...]  # 1 = cached
    capacity_bytes: float
    delta: float  # Zipf skew of the request process
    recency: tuple[int, ...]  # last-touch counter per rank, 0 = never touched
    clock: int  # next recency stamp

    @property
    def num_ranks(self) -> int:
        return len(self.sizes)

    def __post_init__(self):
        n = len(self.sizes)
        if len(self.placement) != n or len(self.recency) != n:
            raise ValueError("placement and recency must match sizes in length")
        if self.capacity_bytes < 0:
            raise ValueError("capacity must be nonnegative")


def empty_cache(sizes: tuple[float, ...], capacity_bytes: float, delta: float) -> CacheState:
    n = len(sizes)
    return CacheState(sizes=tuple(float(s) for s in sizes), placement=(0,) * n,
                      capacity_bytes=capacity_bytes, delta=delta,
                      recency=(0,) * n, clock=1)


@lru_cache(maxsize=32)  # a run uses one (delta, num_ranks), a sweep a few
def _zipf_pmf(delta: float, num_ranks: int) -> tuple[float, ...]:
    norm = sum(l ** -delta for l in range(1, num_ranks + 1))
    return tuple(r ** -delta / norm for r in range(1, num_ranks + 1))


def request_probability(rank: int, delta: float, num_ranks: int) -> float:
    """Zipf pmf: rank^-delta normalized over ranks 1..num_ranks.

    delta = 0 degenerates to uniform; larger delta concentrates mass on
    low ranks. Probabilities are non-increasing in rank and sum to 1.
    """
    if not 1 <= rank <= num_ranks:
        raise ValueError(f"rank {rank} outside [1, {num_ranks}]")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return _zipf_pmf(delta, num_ranks)[rank - 1]


def is_hit(cache: CacheState, rank: int) -> bool:
    if not 1 <= rank <= cache.num_ranks:
        raise ValueError(f"rank {rank} outside [1, {cache.num_ranks}]")
    return cache.placement[rank - 1] == 1


def cached_bytes(cache: CacheState) -> float:
    return sum(s for s, p in zip(cache.sizes, cache.placement) if p)


def _inserted(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    sizes = list(cache.sizes)
    placement = list(cache.placement)
    recency = list(cache.recency)
    sizes[rank - 1] = float(nbytes)
    placement[rank - 1] = 1
    recency[rank - 1] = cache.clock
    return replace(cache, sizes=tuple(sizes), placement=tuple(placement),
                   recency=tuple(recency), clock=cache.clock + 1)


def _insert_evicting(cache: CacheState, rank: int, nbytes: float,
                     key: Callable[[CacheState, int], object]) -> CacheState:
    """Insert rank, then drop the cached rank with the smallest key until it fits.

    Anything larger than the whole cache is rejected outright and the
    state comes back unchanged (non-fatal).
    """
    if not 1 <= rank <= cache.num_ranks:
        raise ValueError(f"rank {rank} outside [1, {cache.num_ranks}]")
    if nbytes < 0:
        raise ValueError(f"item size must be nonnegative, got {nbytes}")
    if nbytes > cache.capacity_bytes:
        log.debug("rejecting rank %d: %s bytes exceeds capacity %s",
                  rank, nbytes, cache.capacity_bytes)
        return cache
    cache = _inserted(cache, rank, nbytes)
    while cached_bytes(cache) > cache.capacity_bytes:
        victim = min(
            (r for r in range(1, cache.num_ranks + 1) if cache.placement[r - 1]),
            key=partial(key, cache))
        cache = replace(cache, placement=(
            cache.placement[:victim - 1] + (0,) + cache.placement[victim:]))
    return cache


def evict_mrc(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    """Insert rank, keeping the most recently touched contents.

    Items are dropped oldest-touch-first until the new total fits. The
    incoming item carries the freshest stamp, so it only leaves when it
    cannot fit at all, and then it is rejected unchanged.
    """
    return _insert_evicting(cache, rank, nbytes, lambda c, r: c.recency[r - 1])


def evict_mpc(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    """Insert rank, keeping the most popular contents.

    While over capacity, the cached rank with the lowest request
    probability goes first (ties broken toward the larger rank index),
    so an unpopular incoming item can be the first thing dropped.
    Oversized items are rejected unchanged, as in evict_mrc.
    """
    return _insert_evicting(cache, rank, nbytes, lambda c, r: (
        _zipf_pmf(c.delta, c.num_ranks)[r - 1], -r))


def apply_caching_action(cache: CacheState, task: TaskGraph, a_ch: tuple[int, ...],
                         policy: str) -> CacheState:
    """Replay a task's caching bits through an eviction policy, in chain order."""
    # looked up on each call, so a rebound evict_mrc or evict_mpc takes effect
    evict = {"mrc": evict_mrc, "mpc": evict_mpc}.get(policy)
    if evict is None:
        raise ValueError(f"unknown eviction policy {policy!r}")
    if len(a_ch) != len(task):
        raise ValueError("caching bit-vector length must match the task")
    for st, bit in zip(task, a_ch):
        if bit and st.d_out > 0.0:
            cache = evict(cache, st.out_rank, st.d_out)
    return cache
