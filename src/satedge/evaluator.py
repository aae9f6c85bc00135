"""Action feasibility, completion time, and priced reward for one episode.

An action assigns each sub-task an (offload, cache) bit pair. Feasible
pairs depend on the category and on whether the output's return leg
still fits inside the remaining coverage window. Times follow the
per-category pipelines below; the reward is a cost (lower is better)
that prices compute cycles, offloaded bytes, pinned cache bytes, and
completion seconds.

An EpisodeState derives hits, feasible (each sub-task's pairs, ascending)
and seconds (each feasible pair's time) once, on first use, for the
solver, baselines, decoding and scoring to read. It also memoises the
cost table of each price vector it is scored at (cost_tables, filled by
cost_rows) and the retention bits of each cache kind (retained, filled
by policies.baseline_cache), so every scheme scored on one state reads
one table and one replay per kind. All of these are cached properties,
not fields, so ==, hash and replace ignore them; a replaced state (a
persistent rollout's carried cache, say) derives its own.

Modeling note: the satellite-to-vehicle return leg is charged at the
fronthaul rate (symmetric fronthaul). Cache hits are judged against the
episode's starting placement, and a hit consumes no compute or offload
budget: only its return legs and any re-pin charge count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .caching import CacheState, is_hit
from .channel import LinkState, transmit_time
from .workload import Category, SubTask, TaskGraph

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class InfeasibleActionError(ValueError):
    """An action pair fell outside a sub-task's feasible set."""


@dataclass(frozen=True)
class PriceVector:
    comp: float  # per cycle executed locally
    comm: float  # per byte offloaded
    cache: float  # per byte pinned
    cpl: float  # per second of completion time


@dataclass(frozen=True)
class ActionMatrix:
    offload: tuple[int, ...]
    cache: tuple[int, ...]

    def __post_init__(self):
        if len(self.offload) != len(self.cache):
            raise ValueError("offload and cache bit-vectors must match in length")
        if any(b not in (0, 1) for b in self.offload + self.cache):
            raise ValueError("action bits must be 0 or 1")

    def pair(self, v: int) -> tuple[int, int]:
        return (self.offload[v], self.cache[v])

    def bits(self) -> tuple[int, ...]:
        """Blocked label layout: all offload bits, then all cache bits."""
        return self.offload + self.cache

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int]]) -> "ActionMatrix":
        return cls(offload=tuple(p[0] for p in pairs), cache=tuple(p[1] for p in pairs))

    @classmethod
    def from_bits(cls, bits: tuple[int, ...]) -> "ActionMatrix":
        if len(bits) % 2:
            raise ValueError("bit count must be even")
        n = len(bits) // 2
        return cls(offload=tuple(bits[:n]), cache=tuple(bits[n:]))


@dataclass(frozen=True)
class EpisodeState:
    task: TaskGraph
    t_c: float  # remaining coverage budget at episode start, seconds
    link: LinkState
    cpu_rate: float  # edge server, cycles/s
    cache: CacheState

    @cached_property
    def hits(self) -> tuple[bool, ...]:
        """Per-sub-task cache hits against the episode's starting placement."""
        return tuple(st.out_rank > 0 and is_hit(self.cache, st.out_rank)
                     for st in self.task)

    @cached_property
    def feasible(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each sub-task's feasible (offload, cache) pairs, ascending."""
        return tuple(feasible_actions(st, self) for st in self.task)

    @cached_property
    def seconds(self) -> tuple[tuple[float, ...], ...]:
        """subtask_time of each feasible pair, aligned with feasible."""
        # the cache bit never changes a pair's time, so time each offload bit once
        both = [(subtask_time(st, 0, hit, self), subtask_time(st, 1, hit, self))
                for st, hit in zip(self.task, self.hits)]
        return tuple(tuple(t[of] for of, _ in feas) for t, feas in zip(both, self.feasible))

    @cached_property
    def cost_tables(self) -> dict[PriceVector, list[list[float]]]:
        """cost_rows' memo: one table per price vector, built on first use."""
        return {}

    @cached_property
    def retained(self) -> dict[str, tuple[int, ...]]:
        """policies.baseline_cache's memo: retention bits per cache kind."""
        return {}


def return_leg(st: SubTask, state: EpisodeState) -> float:
    """Satellite-to-vehicle delivery time for the sub-task's output."""
    return transmit_time(st.d_out, state.link.rate_fh) + state.link.prop_vs


def feasible_actions(st: SubTask, state: EpisodeState) -> tuple[tuple[int, int], ...]:
    """Feasible (offload, cache) pairs, ascending.

    Upload must offload; Download must not. When the output's return leg
    no longer fits in the coverage window, the result has to be cached
    for a later pass, which pins the cache bit to 1.
    """
    cat = st.category
    if cat is Category.UPLOAD:
        return ((1, 0), (1, 1))
    within = return_leg(st, state) < state.t_c
    if cat is Category.DOWNLOAD:
        return ((0, 0), (0, 1)) if within else ((0, 1),)
    return PAIRS if within else ((0, 1), (1, 1))


def nearest_feasible(feas: tuple[tuple[int, int], ...],
                     pair: tuple[int, int]) -> tuple[int, int]:
    """The pair in feas nearest to pair by Hamming distance; ties go to the smaller."""
    if pair in feas:
        return pair
    return min(feas, key=lambda f: ((f[0] != pair[0]) + (f[1] != pair[1]), f))


def subtask_time(st: SubTask, a_of: int, hit: bool, state: EpisodeState) -> float:
    """Seconds until this sub-task's result is back at the vehicle."""
    link = state.link
    cat = st.category
    if cat is Category.UPLOAD:
        return (transmit_time(st.d_in, link.rate_fh) + link.prop_vs
                + transmit_time(st.d_in, link.rate_bh) + link.prop_sg)
    back = return_leg(st, state)
    if cat is Category.DOWNLOAD:
        if hit:
            return back
        return transmit_time(st.d_out, link.rate_bh) + link.prop_sg + back
    # compute: input always rides the fronthaul up, result always rides it down
    ingest = transmit_time(st.d_in, link.rate_fh) + link.prop_vs
    if hit:
        return ingest + back
    if a_of:
        work = transmit_time(st.d_in, link.rate_bh) + link.prop_sg
    else:
        work = st.zeta / state.cpu_rate
    return ingest + work + back


def subtask_cost(st: SubTask, a_of: int, a_ch: int, hit: bool, t: float,
                 prices: PriceVector) -> float:
    """This sub-task's contribution to the episode reward, given its time t."""
    live = 0.0 if hit else 1.0  # a hit consumes no compute or offload budget
    return (prices.comp * (1 - a_of) * st.zeta * live
            + prices.comm * a_of * st.d_in * live
            + prices.cache * a_ch * st.d_out
            + prices.cpl * t)


def cost_rows(state: EpisodeState, prices: PriceVector) -> list[list[float]]:
    """Each sub-task's cost of every feasible pair, aligned with state.feasible.

    Built once per (state, prices) and shared by every caller, so callers
    must not mutate it.
    """
    rows = state.cost_tables.get(prices)
    if rows is None:
        rows = state.cost_tables[prices] = [
            [subtask_cost(st, of, ch, hit, t, prices) for (of, ch), t in zip(feas, secs)]
            for st, feas, secs, hit in zip(state.task, state.feasible, state.seconds,
                                           state.hits)]
    return rows


def validate_action(state: EpisodeState, action: ActionMatrix) -> tuple[int, ...]:
    """Each pair's index in its feasible set; InfeasibleActionError if one is absent."""
    if len(action.offload) != len(state.task):
        raise InfeasibleActionError(
            f"action covers {len(action.offload)} sub-tasks, task has {len(state.task)}")
    picks = []
    for v, (st, feas) in enumerate(zip(state.task, state.feasible)):
        pair = action.pair(v)
        if pair not in feas:
            raise InfeasibleActionError(
                f"sub-task {v} ({st.category.value}): pair {pair} not in {feas}")
        picks.append(feas.index(pair))
    return tuple(picks)


def reward_and_time(state: EpisodeState, action: ActionMatrix,
                    prices: PriceVector) -> tuple[float, float]:
    """(reward, completion_time), each a left fold in chain order like the solver's value."""
    picks = validate_action(state, action)
    cost = seconds = 0.0
    for row, secs, i in zip(cost_rows(state, prices), state.seconds, picks):
        cost += row[i]
        seconds += secs[i]
    return cost, seconds


def reward(state: EpisodeState, action: ActionMatrix, prices: PriceVector) -> float:
    """Episode cost: priced cycles + offloaded bytes + pinned bytes + seconds."""
    return reward_and_time(state, action, prices)[0]


_TIME_ONLY = PriceVector(0.0, 0.0, 0.0, 1.0)  # every other term is an exact 0.0


def completion_time(state: EpisodeState, action: ActionMatrix) -> float:
    """Total seconds across the chain: reward at prices (0, 0, 0, 1), bit for bit."""
    return reward(state, action, _TIME_ONLY)
