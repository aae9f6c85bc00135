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
offer is that loop on the lists themselves: evict_mrc and evict_mpc call
it through _insert_evicting, and the persistent rollout calls it on the
lists it carries from episode to episode. policies.baseline_cache
replays a whole block of offers on arrays under the same rules; the
per-state offers here are its reference. An offer of the size already
stored keeps the input's sizes tuple, as every offer of a library-sized
output does.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

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
        # O(1), never scanning sizes
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


@lru_cache(maxsize=32)
def mpc_keys(delta: float, num_ranks: int) -> tuple[tuple[float, int], ...]:
    """evict_mpc's eviction key of ranks 1..num_ranks, in rank order: the
    request probability, then -rank, so ties go toward the larger rank."""
    return tuple((p, -r) for r, p in enumerate(zipf_pmf(delta, num_ranks), 1))


def offer(sizes: Sequence[float], placement: list[int], recency: list[int], clock: int,
          capacity: float, offers: Iterable[tuple[int, float]],
          keys: Sequence | None = None) -> int:
    """Offer each (rank, bytes) in order to lists indexed by rank - 1, edited
    in place, and return the next clock. An offer larger than capacity is
    refused and leaves the clock; any other holds its rank, stamped with the
    clock, which then advances, and the held rank of least key goes until
    the left_sum of the held sizes fits: keys[rank - 1], or, without keys,
    its recency stamp (mrc). sizes must hold each offer's bytes already."""
    keys = recency if keys is None else keys
    for rank, nbytes in offers:
        if nbytes <= capacity:
            placement[rank - 1] = 1
            recency[rank - 1] = clock
            clock += 1
            while left_sum(itertools.compress(sizes, placement)) > capacity:
                held = itertools.compress(range(len(sizes)), placement)
                placement[min(held, key=keys.__getitem__)] = 0  # the first on ties
    return clock


def _insert_evicting(cache: CacheState, rank: int, nbytes: float,
                     keys: Sequence | None = None) -> CacheState:
    """Insert rank, then evict by keys until it fits (offer).

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
    clock = offer(sizes, placement, recency, cache.clock, cache.capacity_bytes,
                  [(rank, size)], keys)
    return replace(cache, sizes=sizes, placement=tuple(placement), recency=tuple(recency),
                   clock=clock)


def evict_mrc(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    """Insert rank, keeping the most recently touched contents.

    Items are dropped oldest-touch-first until the new total fits. The
    incoming item carries the freshest stamp, so it only leaves when it
    cannot fit at all, and then it is rejected unchanged.
    """
    return _insert_evicting(cache, rank, nbytes)


def evict_mpc(cache: CacheState, rank: int, nbytes: float) -> CacheState:
    """Insert rank, keeping the most popular contents.

    While over capacity, the cached rank with the lowest request
    probability goes first (ties broken toward the larger rank index),
    so an unpopular incoming item can be the first thing dropped.
    Oversized items are rejected unchanged, as in evict_mrc.
    """
    return _insert_evicting(cache, rank, nbytes, mpc_keys(cache.delta, cache.num_ranks))
