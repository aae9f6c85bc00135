"""On-board content cache: Zipf request popularity and two eviction policies.

The cache indexes items by popularity rank (1 = most requested). State is
immutable: an offer edits plain lists of the placement and recency and
returns one new CacheState. The two policies share that loop and differ
only in the victim's key. Each pass re-sums the held sizes, a left fold
in rank order, through one left_sum(itertools.compress(sizes, placement)):
a running total drifts, because float subtraction does not undo addition.
left_sum is every float sum that feeds an artifact byte (the Zipf norm,
the held bytes, the library's total, the report's sums over episodes):
the builtin sum() compensates its float sums from CPython 3.12 on, and
so rounds otherwise than 3.10 and 3.11, whose bytes the fold keeps.
policies.baseline_cache replays a whole block of offers on arrays under
the same rules; the per-state offers here are its reference and the
persistent rollout's.
The offered state is built without rerunning CacheState's checks: each
of its fields is copied from the checked input or has the input's
length, so they hold by construction. An offer of the size already
stored keeps the input's sizes tuple, as every offer of a library-sized
output does.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

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
        # O(1), never scanning sizes; offers skip it (_offered), since they
        # copy a checked state's fields
        n = len(self.sizes)
        if len(self.placement) != n or len(self.recency) != n:
            raise ValueError("placement and recency must match sizes in length")
        check_budget(self.capacity_bytes, self.delta)


def check_budget(capacity_bytes: float, delta: float) -> None:
    """CacheState's checks of its capacity and Zipf skew, for a block of
    caches that share both."""
    if not 0.0 <= capacity_bytes < math.inf:
        raise ValueError(f"capacity must be finite and >= 0, got {capacity_bytes}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")


def left_sum(values: Iterable[float]) -> float:
    """values added left to right from 0.0, one rounding per add, on every
    Python: the builtin sum() of floats before CPython 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


@lru_cache(maxsize=32)  # a run uses one (delta, num_ranks), a sweep a few
def zipf_pmf(delta: float, num_ranks: int) -> tuple[float, ...]:
    """request_probability of ranks 1..num_ranks, in rank order."""
    norm = left_sum(l ** -delta for l in range(1, num_ranks + 1))
    return tuple(r ** -delta / norm for r in range(1, num_ranks + 1))


def request_probability(rank: int, delta: float, num_ranks: int) -> float:
    """Zipf pmf: rank^-delta normalized over ranks 1..num_ranks.

    delta = 0 degenerates to uniform; larger delta concentrates mass on
    low ranks. Probabilities are non-increasing in rank and sum to 1.
    """
    if not 1 <= rank <= num_ranks:
        raise ValueError(f"rank {rank} outside [1, {num_ranks}]")
    if not delta >= 0:  # also rejects NaN
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return zipf_pmf(delta, num_ranks)[rank - 1]


def _insert_evicting(cache: CacheState, rank: int, nbytes: float,
                     key: Callable[[list[int], int], object]) -> CacheState:
    """Insert rank, then drop the held rank r of least key(recency, r) until it fits.

    Anything larger than the whole cache is rejected outright and the
    state comes back unchanged (non-fatal).
    """
    if not 1 <= rank <= cache.num_ranks:
        raise ValueError(f"rank {rank} outside [1, {cache.num_ranks}]")
    if not nbytes >= 0:  # also rejects NaN
        raise ValueError(f"item size must be nonnegative, got {nbytes}")
    if nbytes > cache.capacity_bytes:
        log.debug("rejecting rank %d: %s bytes exceeds capacity %s",
                  rank, nbytes, cache.capacity_bytes)
        return cache
    size, sizes = float(nbytes), cache.sizes
    stored = sizes[rank - 1]
    # repr keeps -0.0 apart from 0.0 and 1 apart from 1.0, which == does not
    if not (type(stored) is float and stored == size
            and math.copysign(1.0, stored) == math.copysign(1.0, size)):
        sizes = sizes[:rank - 1] + (size,) + sizes[rank:]
    placement, recency = list(cache.placement), list(cache.recency)
    placement[rank - 1] = 1
    recency[rank - 1] = cache.clock
    while left_sum(itertools.compress(sizes, placement)) > cache.capacity_bytes:
        victim = min((r for r in range(1, len(sizes) + 1) if placement[r - 1]),
                     key=lambda r: key(recency, r))
        placement[victim - 1] = 0
    return _offered(cache, sizes, tuple(placement), tuple(recency))


def _offered(cache: CacheState, sizes: tuple[float, ...], placement: tuple[int, ...],
             recency: tuple[int, ...]) -> CacheState:
    """cache after one accepted offer, its instance dict filled directly.

    Skips the frozen dataclass's __init__ and __post_init__: capacity and
    delta are copied from cache, which passed them, and sizes, placement
    and recency keep cache's length.
    """
    offered = object.__new__(CacheState)
    vars(offered).update(sizes=sizes, placement=placement,
                         capacity_bytes=cache.capacity_bytes, delta=cache.delta,
                         recency=recency, clock=cache.clock + 1)
    return offered


def evict_mrc(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    """Insert rank, keeping the most recently touched contents.

    Items are dropped oldest-touch-first until the new total fits. The
    incoming item carries the freshest stamp, so it only leaves when it
    cannot fit at all, and then it is rejected unchanged.
    """
    return _insert_evicting(cache, rank, nbytes, lambda recency, r: recency[r - 1])


def evict_mpc(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    """Insert rank, keeping the most popular contents.

    While over capacity, the cached rank with the lowest request
    probability goes first (ties broken toward the larger rank index),
    so an unpopular incoming item can be the first thing dropped.
    Oversized items are rejected unchanged, as in evict_mrc.
    """
    pmf = zipf_pmf(cache.delta, cache.num_ranks)
    return _insert_evicting(cache, rank, nbytes, lambda recency, r: (pmf[r - 1], -r))


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
