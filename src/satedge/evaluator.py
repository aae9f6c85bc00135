"""Action feasibility, completion time, and priced reward for episodes.

An action assigns each sub-task an (offload, cache) bit pair, which the
scoring path carries as its index p = 2 * offload + cache in PAIRS.
Feasible pairs depend on the category and on whether the output's
return leg still fits inside the remaining coverage window. Times follow
the per-category pipelines below; the reward is a cost (lower is better)
that prices compute cycles, offloaded bytes, pinned cache bytes, and
completion seconds.

Times, feasible sets and costs come from Tables, which computes them for
a block of states, and holds them, with whole-array numpy from its own
columns: the arrays the draw (scenario.episode_blocks) produced, whose
states are built only if read, or, for any other block, such as a lone
state's, ones gathered from the objects.
Every stage takes a sequence of blocks. score checks an N x V array of
pair indices against each block's feasible patterns and gathers each
state's cost and seconds at its own hits and pairs, folded over the
chain one N-vector add per sub-task; reward and completion_time are its
one-state forms. Labels hold pairs as N x 2V bits, all offload bits then
all cache bits, split and joined by label_picks and label_bits only. A
persistent rollout's carried states differ from their draw only in the
cache, so Tables.carrying gives them the draw's rows and prices.

Cache hits are judged against the episode's starting placement, and a
hit consumes no compute or offload budget: only its return legs and any
re-pin charge count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .caching import CacheState
from .channel import LinkState, transmit_time
from .workload import Category, SubTask, TaskGraph

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
PAIR_OFFLOAD = np.array([of for of, _ in PAIRS])  # each pair's bits, by PAIRS index
PAIR_CACHE = np.array([ch for _, ch in PAIRS])


def pair_index(offload, cache):
    """The PAIRS index of (offload, cache) bits, elementwise for numpy arrays."""
    return 2 * offload + cache


def label_bits(picks: np.ndarray) -> np.ndarray:
    """N x V PAIRS indices as N x 2V label bits: all offload bits, then all cache bits."""
    return np.concatenate((PAIR_OFFLOAD[picks], PAIR_CACHE[picks]), axis=1)


def label_picks(bits: np.ndarray) -> np.ndarray:
    """The N x V PAIRS indices of N x 2V blocked label bits; label_bits inverted."""
    return pair_index(*np.split(bits, 2, axis=1))


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
        if not {*self.offload, *self.cache} <= {0, 1}:
            raise ValueError("action bits must be 0 or 1")

    def pair(self, v: int) -> tuple[int, int]:
        return (self.offload[v], self.cache[v])

    @classmethod
    def from_picks(cls, picks: Iterable[int]) -> "ActionMatrix":
        pairs = [PAIRS[p] for p in picks]
        offload, cache = zip(*pairs) if pairs else ((), ())
        return cls(offload=offload, cache=cache)

    @classmethod
    def from_bits(cls, bits: tuple[int, ...]) -> "ActionMatrix":
        if len(bits) % 2:
            raise ValueError("bit count must be even")
        n = len(bits) // 2
        return cls(offload=tuple(bits[:n]), cache=tuple(bits[n:]))


@dataclass(frozen=True)
class EpisodeState:
    # slots by hand, not slots=True: with slots=True, CPython 3.10 to 3.13
    # raise TypeError, not FrozenInstanceError, on assigning a name that is
    # not a field, since the frozen __setattr__ names the class it replaced
    __slots__ = ("task", "t_c", "link", "cpu_rate", "cache")
    task: TaskGraph
    t_c: float  # remaining coverage budget at episode start, seconds
    link: LinkState
    cpu_rate: float  # edge server, cycles/s
    cache: CacheState


# Feasible pairs, ascending, indexed by 2 * category code + within, where
# within says the output's return leg ends inside the coverage window.
# Upload must offload; Download must not. An output that cannot return in
# time has to be cached for a later pass, which pins the cache bit to 1.
_CODE = {Category.UPLOAD: 0, Category.DOWNLOAD: 1, Category.COMPUTE: 2}
FEASIBLE = (
    ((1, 0), (1, 1)), ((1, 0), (1, 1)),  # upload
    ((0, 1),), ((0, 0), (0, 1)),  # download
    ((0, 1), (1, 1)), PAIRS,  # compute
)
_INFEASIBLE = np.array([[pair not in feas for pair in PAIRS] for feas in FEASIBLE])
_LIVE = np.array([[1.0], [0.0]])  # a miss (h = 0) consumes budget, a hit (h = 1) none


def nearest_feasible(feas: tuple[tuple[int, int], ...],
                     pair: tuple[int, int]) -> tuple[int, int]:
    """The pair in feas nearest to pair by Hamming distance; ties go to the smaller."""
    if pair in feas:
        return pair
    return min(feas, key=lambda f: ((f[0] != pair[0]) + (f[1] != pair[1]), f))


# NEAR[pattern, p]: the PAIRS index of nearest_feasible(FEASIBLE[pattern], PAIRS[p]),
# so projecting a block of proposals is one lookup
NEAR = np.array([[PAIRS.index(nearest_feasible(feas, pair)) for pair in PAIRS]
                 for feas in FEASIBLE])


def _pair_cost(zeta, d_in, d_out, live, a_of, a_ch, t, prices: PriceVector):
    """The cost formula, for floats or broadcasting numpy arrays alike.

    live is 0 on a cache hit, which consumes no compute or offload budget.
    """
    return (prices.comp * (1 - a_of) * zeta * live
            + prices.comm * a_of * d_in * live
            + prices.cache * a_ch * d_out
            + prices.cpl * t)


def _task_columns(states: Sequence[EpisodeState]) -> tuple[np.ndarray, ...]:
    """The N x V code, d_in, d_out, rho and rank columns of states' SubTask objects."""
    n, v = len(states), len(states[0].task)
    if any(len(s.task) != v for s in states):
        raise ValueError("every state of a block needs the same number of sub-tasks")
    sub = np.array([(_CODE[st.category], st.d_in, st.d_out, st.rho, st.out_rank)
                    for s in states for st in s.task], dtype=np.float64).reshape(n, v, 5)
    code, d_in, d_out, rho, rank = sub.transpose(2, 0, 1)
    return code.astype(np.intp), d_in, d_out, rho, rank.astype(np.intp)


class Tables:
    """Per-pair times and feasible sets of a block of N states, as numpy arrays.

    It holds what it reads of its states as columns: N x V code (the
    category's _CODE), d_in, d_out, rho, zeta = rho * d_in (as SubTask.zeta
    computes it) and rank (the output's, 0 = none), and links, N x 6: t_c,
    rate_fh, rate_bh, prop_vs, prop_sg and cpu_rate. seconds[n, v, h, p] is
    the time of sub-task v of state n under PAIRS[p], on a miss (h = 0) or
    a hit (h = 1) of its output, and pattern[n, v] indexes FEASIBLE with
    that sub-task's feasible pairs. Its caches (CACHES) are placement,
    N x (1 + R) bools, column r true where the state's cache holds rank r
    (column 0, rank 0 or no output, is never held), and delta, the N Zipf
    skews, which are all that hits and the popularity feature read of a
    cache; then recency, N x R stamps, clock, the N next stamps, sizes,
    N x R bytes per rank, and capacity, the N byte budgets, which the
    retention replay reads too. Every state of a block has the same number
    V of sub-tasks and every cache the same number R of ranks.

    Tables(states) gathers all of it from the objects. Tables.drawn takes
    the arrays the draw (scenario.episode_blocks) produced, and builds the
    states only when they are first read. costs(prices) prices the block
    once per price vector, +inf on the infeasible pairs. The time and
    feasibility formulas live here only, and the cost formula in
    _pair_cost: feasible_actions reads a block of one sub-task, and a lone
    state a block of its own. retained is policies.baseline_cache's memo:
    the block's retention bits per cache kind, replayed on the cache
    arrays, so a drawn block's retention builds no state.

    Modeling note: the satellite-to-vehicle return leg is charged at the
    fronthaul rate (symmetric fronthaul).
    """

    COLUMNS = ("code", "d_in", "d_out", "rho", "zeta", "rank", "links")  # carrying slices each
    CACHES = ("placement", "delta", "recency", "clock", "sizes", "capacity")

    def __init__(self, states: Sequence[EpisodeState]):
        self.states = tuple(states)
        if not self.states:
            raise ValueError("a Tables block needs at least one state, got none")
        self._derive(_task_columns(self.states), np.array(
            [(s.t_c, s.link.rate_fh, s.link.rate_bh, s.link.prop_vs, s.link.prop_sg,
              s.cpu_rate) for s in self.states], dtype=np.float64))

    @classmethod
    def drawn(cls, tasks: tuple[np.ndarray, ...], links: np.ndarray,
              caches: tuple[np.ndarray, ...],
              states: Callable[[], Sequence[EpisodeState]]) -> Tables:
        """The block of a draw's arrays: tasks, the N x V code, d_in, d_out,
        rho and rank columns, then links, and caches, the arrays CACHES
        names in its order, as the class holds them. states() builds the N
        states; it runs on the first read of .states, and never if nothing
        reads them."""
        if not len(links):
            raise ValueError("a Tables block needs at least one state, got none")
        block = object.__new__(cls)
        vars(block).update(zip(cls.CACHES, caches, strict=True))
        block._build_states = states
        block._derive(tasks, links)
        return block

    def _derive(self, tasks: tuple[np.ndarray, ...], links: np.ndarray) -> None:
        """Columns, times and feasible patterns from the task columns and links."""
        self.code, self.d_in, self.d_out, self.rho, self.rank = tasks
        self.zeta = self.rho * self.d_in
        self.links = links
        # N x V x 1 per sub-task column and N x 1 x 1 per state column, so the
        # pair axis broadcasts last
        code, zeta = self.code[..., None], self.zeta[..., None]
        t_c, rate_fh, rate_bh, prop_vs, prop_sg, cpu_rate = links.T[:, :, None, None]
        # states no draw produces: byte counts and link rates are transmit_time's
        bad = ~((zeta >= 0) & (zeta < np.inf) & (cpu_rate > 0) & (cpu_rate < np.inf)
                & (t_c >= 0))[:, :, 0]  # NaN fails every comparison
        if bad.any():
            n, v = np.argwhere(bad)[0].tolist()
            raise ValueError(
                f"state {n}, sub-task {v}: needs a finite zeta >= 0, a finite cpu_rate > 0 "
                f"and a t_c >= 0, got zeta={zeta[n, v, 0].item()!r}, "
                f"cpu_rate={links[n, 5].item()!r}, t_c={links[n, 0].item()!r}")
        # legs[n, v, r, 0, s]: bytes s (input, output) over rate r (fronthaul, backhaul)
        sizes = np.stack((self.d_in, self.d_out), axis=-1)[:, :, None, None]
        legs = transmit_time(sizes, links[:, None, 1:3, None, None])
        (in_fh, out_fh), (in_bh, out_bh) = legs.transpose(2, 4, 0, 1, 3)
        back = out_fh + prop_vs  # the output's return leg
        # compute: the input rides the fronthaul up, then the edge server
        # works on it or relays it to the ground; the result rides back down
        ingest = in_fh + prop_vs
        work = np.where(PAIR_OFFLOAD == 1, in_bh + prop_sg, zeta / cpu_rate)
        # download: a miss first fetches the output from the ground
        fetched = out_bh + prop_sg + back
        is_upload, is_compute = code == 0, code == 2
        upload = ingest + in_bh + prop_sg
        miss = np.where(is_upload, upload,
                        np.where(is_compute, ingest + work + back, fetched))
        hit = np.where(is_upload, upload, np.where(is_compute, ingest + back, back))
        self.seconds = np.stack((miss, np.broadcast_to(hit, miss.shape)), axis=2)
        self.pattern = (2 * code + (back < t_c))[:, :, 0]
        self._costs: dict[PriceVector, np.ndarray] = {}
        self._drawn: tuple[Tables, slice] | None = None  # a carried block's draw, rows
        self.retained: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.links)

    @cached_property
    def states(self) -> tuple[EpisodeState, ...]:
        """The block's states; a drawn block builds them here, once."""
        return tuple(self._build_states())

    def carrying(self, states: Sequence[EpisodeState], rows: slice) -> Tables:
        """The block of states, rows `rows` of this block with their caches
        swapped. Only hits read a cache, so its columns, times and patterns
        are views of those rows and its costs are this block's, priced once
        per price vector; its placement, delta, hits and retention bits are
        its own states', as are its caches' other arrays."""
        carried = object.__new__(Tables)
        carried.states = tuple(states)
        for name in Tables.COLUMNS:
            setattr(carried, name, getattr(self, name)[rows])
        carried.seconds, carried.pattern = self.seconds[rows], self.pattern[rows]
        if len(carried.pattern) != len(carried.states):
            raise ValueError(f"{len(carried.states)} states carried on "
                             f"{len(carried.pattern)} rows")
        carried._drawn = (self, rows)
        carried.retained = {}
        return carried

    @cached_property
    def placement(self) -> np.ndarray:
        """The states' caches' placements, gathered from the objects; see the
        class docstring. ValueError names the first state whose cache holds a
        number of ranks other than state 0's."""
        placements = [state.cache.placement for state in self.states]
        width = len(placements[0])
        if len(set(map(len, placements))) > 1:
            n = next(n for n, placement in enumerate(placements) if len(placement) != width)
            raise ValueError(f"state {n}: its cache holds {len(placements[n])} ranks where "
                             f"state 0's holds {width}; every cache of a block needs the same "
                             "number")
        held = np.zeros((len(placements), 1 + width), dtype=bool)
        held[:, 1:] = np.frombuffer(bytes(itertools.chain.from_iterable(placements)),
                                    dtype=np.uint8).reshape(len(placements), width) == 1
        return held

    def _gathered(self, field: str, dtype: type) -> np.ndarray:
        """One CacheState field of every state, gathered from the objects:
        N x R for a per-rank field, N for a scalar one."""
        self.placement  # first: names a cache whose number of ranks differs
        return np.array([getattr(state.cache, field) for state in self.states], dtype=dtype)

    @cached_property
    def delta(self) -> np.ndarray:
        """The N Zipf skews of the states' caches, gathered from the objects."""
        return self._gathered("delta", np.float64)

    @cached_property
    def recency(self) -> np.ndarray:
        """The N x R recency stamps of the states' caches, gathered from the objects."""
        return self._gathered("recency", np.intp)

    @cached_property
    def clock(self) -> np.ndarray:
        """The N next recency stamps of the states' caches, gathered from the objects."""
        return self._gathered("clock", np.intp)

    @cached_property
    def sizes(self) -> np.ndarray:
        """The N x R bytes per rank of the states' caches, gathered from the objects."""
        return self._gathered("sizes", np.float64)

    @cached_property
    def capacity(self) -> np.ndarray:
        """The N byte budgets of the states' caches, gathered from the objects."""
        return self._gathered("capacity_bytes", np.float64)

    @cached_property
    def hits(self) -> np.ndarray:
        """The N x V cache hits of the block, each state's judged against its
        own cache, read-only: one gather of the output ranks from placement.
        Every output rank must lie in 0..R; ValueError names the first state,
        and sub-task, that breaks it."""
        rank, held = self.rank, self.placement
        width = held.shape[1] - 1
        bad = (rank < 0) | (rank > width)
        if bad.any():
            n, v = np.argwhere(bad)[0].tolist()
            raise ValueError(f"state {n}, sub-task {v}: output rank {rank[n, v].item()} "
                             f"outside 0..{width}, its cache's ranks")
        hits = np.take_along_axis(held, rank, axis=1)
        hits.flags.writeable = False
        return hits

    def costs(self, prices: PriceVector) -> np.ndarray:
        """N x V x 2 x 4 cost of every pair at prices, laid out like seconds,
        +inf where infeasible. Built once per price vector; do not mutate."""
        if self._drawn is not None:
            block, rows = self._drawn
            return block.costs(prices)[rows]
        cost = self._costs.get(prices)
        if cost is None:
            cost = self._costs[prices] = _pair_cost(
                *(c[..., None, None] for c in (self.zeta, self.d_in, self.d_out)),
                _LIVE, PAIR_OFFLOAD, PAIR_CACHE, self.seconds, prices)
            np.copyto(cost, np.inf, where=_INFEASIBLE[self.pattern][:, :, None, :])
        return cost


# States per Tables block. Larger blocks spread numpy's per-call cost
# thinner but hold more states' tables at once; past this size labelling
# gains a few percent at most (gen-dataset, default config).
BLOCK_STATES = 256


def feasible_actions(st: SubTask, state: EpisodeState) -> tuple[tuple[int, int], ...]:
    """Feasible (offload, cache) pairs of one sub-task, ascending (see FEASIBLE)."""
    return FEASIBLE[int(Tables([replace(state, task=(st,))]).pattern[0, 0])]


def subtask_cost(st: SubTask, a_of: int, a_ch: int, hit: bool, t: float,
                 prices: PriceVector) -> float:
    """This sub-task's contribution to the episode reward, given its time t."""
    return _pair_cost(st.zeta, st.d_in, st.d_out, 0.0 if hit else 1.0, a_of, a_ch, t,
                      prices)


def at_hits(block: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """The N x V x 4 entries of an N x V x 2 x 4 Tables array at each sub-task's hit."""
    return np.where(hits[:, :, None], block[:, :, 1], block[:, :, 0])


def _check_feasible(pattern: np.ndarray, actions: np.ndarray, start: int) -> None:
    """InfeasibleActionError naming the first state and sub-task whose entry
    in actions is not a PAIRS index or is infeasible under pattern; states
    count from start."""
    if actions.shape != pattern.shape:
        raise InfeasibleActionError(f"actions of shape {actions.shape} do not fit "
                                    f"{len(pattern)} tasks of {pattern.shape[1]} sub-tasks")
    integral = np.issubdtype(actions.dtype, np.integer)
    bad = (actions < 0) | (actions >= len(PAIRS)) if integral else np.ones(actions.shape, bool)
    if bad.any():
        n, v = np.argwhere(bad)[0].tolist()
        raise InfeasibleActionError(
            f"episode {start + n}, sub-task {v}: {actions[n, v].item()!r} is not a "
            f"pair index, an integer in 0..{len(PAIRS) - 1}")
    bad = _INFEASIBLE[pattern, actions]
    if bad.any():
        n, v = np.argwhere(bad)[0].tolist()  # row-major: the first state, then sub-task
        p = int(pattern[n, v])
        raise InfeasibleActionError(
            f"episode {start + n}, sub-task {v} ({tuple(_CODE)[p // 2].value}): "
            f"pair {PAIRS[actions[n, v]]} not in {FEASIBLE[p]}")


def score(blocks: Sequence[Tables], actions: np.ndarray,
          prices: PriceVector) -> tuple[list[float], list[float]]:
    """Each state's (reward, completion time) under its row of actions.

    actions is N x V, PAIRS indices, one row per state of the blocks in
    order. Every pair is checked against its feasible set first
    (InfeasibleActionError names the first offender). Each state's cost
    and seconds are gathered at its own hits and pairs, and each total is
    a left fold in chain order from 0.0, one N-vector add per sub-task, as
    block_argmin folds the solver's value.
    """
    rewards: list[float] = []
    times: list[float] = []
    start = 0
    for block in blocks:
        picks = actions[start:start + len(block)]
        _check_feasible(block.pattern, picks, start)
        for table, out in ((block.costs(prices), rewards), (block.seconds, times)):
            picked = np.take_along_axis(at_hits(table, block.hits), picks[..., None], axis=2)
            total = np.zeros(len(picks))
            for column in picked[..., 0].T:
                total += column
            out += total.tolist()
        start += len(block)
    return rewards, times


def reward(state: EpisodeState, action: ActionMatrix, prices: PriceVector) -> float:
    """Episode cost: priced cycles + offloaded bytes + pinned bytes + seconds."""
    picks = pair_index(np.array([action.offload], np.intp), np.array([action.cache], np.intp))
    return score([Tables([state])], picks, prices)[0][0]


_TIME_ONLY = PriceVector(0.0, 0.0, 0.0, 1.0)  # every other term is an exact 0.0


def completion_time(state: EpisodeState, action: ActionMatrix) -> float:
    """Total seconds across the chain: reward at prices (0, 0, 0, 1), bit for bit."""
    return reward(state, action, _TIME_ONLY)
