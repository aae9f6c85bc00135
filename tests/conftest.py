import itertools
from dataclasses import replace

import numpy as np
import pytest

from satedge.caching import (CacheState, apply_caching_action, cached_bytes,
                             empty_cache, is_hit, request_probability)
from satedge.channel import LinkState
from satedge.config import ScenarioConfig, default_config
from satedge.evaluator import (PAIRS, ActionMatrix, EpisodeState, PriceVector,
                               feasible_actions, reward, subtask_cost, subtask_time)
from satedge.neural import MLPModel, cross_entropy, forward, gradients
from satedge.scenario import library_capacity, prices_from
from satedge.workload import SubTask, Category, TaskGraph


@pytest.fixture
def cfg():
    return default_config()


@pytest.fixture
def prices(cfg):
    return prices_from(cfg.scenario)


# Hand-built episode pieces used by the formula golden tests. Rates are the
# 1.6 / 2.4 Mb/s pair every worked example in the module docs is stated at.
GOLDEN_LINK = LinkState(rate_fh=1.6e6, rate_bh=2.4e6, prop_vs=0.03, prop_sg=0.27)


def make_cache(num_ranks=30, capacity=1e9, placed=(), delta=1.0, sizes=None):
    if sizes is None:
        sizes = tuple(200e3 for _ in range(num_ranks))
    placement = tuple(1 if r + 1 in placed else 0 for r in range(num_ranks))
    recency = tuple(1 if r + 1 in placed else 0 for r in range(num_ranks))
    return CacheState(sizes=sizes, placement=placement, capacity_bytes=capacity,
                      delta=delta, recency=recency, clock=2)


def make_state(task, t_c=300.0, link=GOLDEN_LINK, cpu_rate=1e10, cache=None):
    if cache is None:
        cache = make_cache()
    return EpisodeState(task=tuple(task), t_c=t_c, link=link,
                        cpu_rate=cpu_rate, cache=cache)


def upload(d_in=400e3):
    return SubTask(category=Category.UPLOAD, d_in=d_in, d_out=0.0, rho=0.0,
                   out_rank=0)


def download(d_out=160e3, rank=1):
    return SubTask(category=Category.DOWNLOAD, d_in=0.0, d_out=d_out, rho=0.0,
                   out_rank=rank)


def compute(d_in=100e3, d_out=100e3, rho=1e4, rank=2):
    return SubTask(category=Category.COMPUTE, d_in=d_in, d_out=d_out, rho=rho,
                   out_rank=rank)


# ---------------------------------------------------------------------------
# deliberately naive references that library code is checked against


def reference_hits(state: EpisodeState) -> tuple[bool, ...]:
    """The hit rule on the starting placement, without EpisodeState.hits."""
    return tuple(st.out_rank > 0 and is_hit(state.cache, st.out_rank)
                 for st in state.task)


def reference_reward_and_time(state: EpisodeState, action: ActionMatrix,
                              prices: PriceVector) -> tuple[float, float]:
    """(reward, completion_time) from one subtask_time and subtask_cost per pick.

    Reads no derived view or cost table of the state; the action must be
    feasible.
    """
    cost = seconds = 0.0
    for v, (st, hit) in enumerate(zip(state.task, reference_hits(state))):
        of, ch = action.pair(v)
        t = subtask_time(st, of, hit, state)
        cost += subtask_cost(st, of, ch, hit, t, prices)
        seconds += t
    return cost, seconds


def reference_baseline_cache(kind: str, state: EpisodeState) -> tuple[int, ...]:
    """Retention bits from a fresh replay of every output on each call."""
    cache = apply_caching_action(state.cache, state.task, (1,) * len(state.task), kind)
    return tuple(int(st.d_out > 0.0 and is_hit(cache, st.out_rank)) for st in state.task)


def reference_evict(cache: CacheState, rank: int, nbytes: float,
                    policy: str) -> CacheState:
    """One evict_mrc or evict_mpc offer, rebuilding the state at every step.

    Inserts through dataclasses.replace, then re-sums cached_bytes and
    rebuilds the placement tuple once per eviction, so it shares no list
    handling with the library's loop.
    """
    if nbytes > cache.capacity_bytes:
        return cache

    def put(values: tuple, value) -> tuple:
        return values[:rank - 1] + (value,) + values[rank:]

    cache = replace(cache, sizes=put(cache.sizes, float(nbytes)),
                    placement=put(cache.placement, 1),
                    recency=put(cache.recency, cache.clock), clock=cache.clock + 1)
    while cached_bytes(cache) > cache.capacity_bytes:
        held = [r for r in range(1, cache.num_ranks + 1) if cache.placement[r - 1]]
        if policy == "mrc":
            victim = min(held, key=lambda r: cache.recency[r - 1])
        else:
            victim = min(held, key=lambda r: (
                request_probability(r, cache.delta, cache.num_ranks), -r))
        cache = replace(cache, placement=(
            cache.placement[:victim - 1] + (0,) + cache.placement[victim:]))
    return cache


def reference_generate_task(rng_seed: int, cfg: ScenarioConfig,
                            library: tuple[float, ...]) -> TaskGraph:
    """generate_task drawing each category with ``rng.choice(3, p=mix)``."""
    mix = (cfg.mix_upload, cfg.mix_download, cfg.mix_compute)
    rng = np.random.default_rng(rng_seed)
    subtasks = []
    for _ in range(cfg.num_subtasks):
        cat = (Category.UPLOAD, Category.DOWNLOAD,
               Category.COMPUTE)[int(rng.choice(3, p=mix))]
        if cat is Category.UPLOAD:
            d_in = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
            subtasks.append(SubTask(cat, d_in=d_in, d_out=0.0, rho=0.0, out_rank=0))
            continue
        rank = int(rng.integers(1, cfg.num_ranks + 1))
        d_out = float(library[rank - 1])
        if cat is Category.DOWNLOAD:
            subtasks.append(SubTask(cat, d_in=0.0, d_out=d_out, rho=0.0, out_rank=rank))
        else:
            d_in = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
            rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            while rho == 0.0:
                rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            subtasks.append(SubTask(cat, d_in=d_in, d_out=d_out, rho=rho, out_rank=rank))
    return tuple(subtasks)


def reference_random_placement(cfg: ScenarioConfig, library: tuple[float, ...],
                               rng: np.random.Generator) -> CacheState:
    """random_placement starting from empty_cache, one numpy index at a time."""
    capacity = library_capacity(cfg, library)
    cache = empty_cache(library, capacity, cfg.zipf_delta)
    target = float(rng.uniform(0.0, cfg.placement_fill_max)) * capacity
    total = 0.0
    placement = list(cache.placement)
    recency = list(cache.recency)
    clock = cache.clock
    for idx in rng.permutation(cfg.num_ranks):
        size = library[int(idx)]
        if total + size <= target:
            placement[int(idx)] = 1
            recency[int(idx)] = clock
            clock += 1
            total += size
    return CacheState(sizes=cache.sizes, placement=tuple(placement),
                      capacity_bytes=capacity, delta=cfg.zipf_delta,
                      recency=tuple(recency), clock=clock)


def solve_full_grid(state: EpisodeState, prices: PriceVector,
                    ) -> tuple[ActionMatrix, float]:
    """Reference optimum from the raw 4^|V| grid, infeasible combos discarded.

    Deliberately naive (re-scores every combination through reward) so it
    shares nothing with solve_optimal beyond the evaluator. Only sane for
    small |V|.
    """
    feas = [set(feasible_actions(st, state)) for st in state.task]
    best: tuple[ActionMatrix, float] | None = None
    for combo in itertools.product(PAIRS, repeat=len(state.task)):
        if any(pair not in feas[v] for v, pair in enumerate(combo)):
            continue
        action = ActionMatrix(offload=tuple(p[0] for p in combo),
                              cache=tuple(p[1] for p in combo))
        value = reward(state, action, prices)
        if best is None or value < best[1]:
            best = (action, value)
    if best is None:
        raise ValueError("no feasible action exists for this episode")
    return best


def gradient_check(model: MLPModel, x: np.ndarray, labels: np.ndarray,
                   eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    grad_w, grad_b = gradients(model, x, labels)
    worst = 0.0

    def loss() -> float:
        return cross_entropy(forward(model, x), labels)

    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for arr, g in zip(params, grads):
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = loss()
                flat[i] = keep - eps
                down = loss()
                flat[i] = keep
                numeric = (up - down) / (2.0 * eps)
                denom = max(abs(gflat[i]) + abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
