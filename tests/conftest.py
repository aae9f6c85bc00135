import functools
import itertools
import operator
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import settings

from satedge.caching import CacheState, apply_caching_action, request_probability
from satedge.channel import LinkState, link_rate, snr_from_db, transmit_time
from satedge.config import (ScenarioConfig, TrainConfig, default_config, orbit_params,
                            scenario_hash)
from satedge.dil import TrainResult, split_indices
from satedge.evaluator import (FEASIBLE, PAIRS, ActionMatrix, EpisodeState, PriceVector,
                               Tables, score)
from satedge.geometry import coverage_time, earth_central_angle
from satedge.neural import (LAYOUT_VERSION, FeatureScaler, MLPModel, cross_entropy,
                            feature_dim, forward, gradients, init_model)
from satedge.oracle import Demonstration, Demonstrations
from satedge.policies import baseline_cache
from satedge.scenario import episode_blocks, library_capacity, make_library, prices_from
from satedge.workload import SubTask, Category, TaskGraph, generate_task

# CI runs with --hypothesis-profile=ci: the same examples on every run, and a
# failure prints the blob that replays it (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def cfg():
    return default_config()


@pytest.fixture
def prices(cfg):
    return prices_from(cfg.scenario)


# Hand-built episode pieces used by the formula golden tests. Rates are the
# 1.6 / 2.4 Mb/s pair every worked example in the module docs is stated at.
GOLDEN_LINK = LinkState(rate_fh=1.6e6, rate_bh=2.4e6, prop_vs=0.03, prop_sg=0.27)


def empty_cache(sizes: tuple[float, ...], capacity_bytes: float, delta: float) -> CacheState:
    """A cache holding nothing, its recency clock at 1."""
    n = len(sizes)
    return CacheState(sizes=tuple(float(s) for s in sizes), placement=(0,) * n,
                      capacity_bytes=capacity_bytes, delta=delta,
                      recency=(0,) * n, clock=1)


def cached_bytes(cache: CacheState) -> float:
    """Bytes the cache holds, folded left in rank order from 0.0 on every
    Python (the builtin sum() compensates from CPython 3.12 on)."""
    return functools.reduce(operator.add, itertools.compress(cache.sizes, cache.placement),
                            0.0)


def is_hit(cache: CacheState, rank: int) -> bool:
    """Whether the cache holds popularity rank `rank` (1-based)."""
    if not 1 <= rank <= cache.num_ranks:
        raise ValueError(f"rank {rank} outside [1, {cache.num_ranks}]")
    return cache.placement[rank - 1] == 1


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


def stream_blocks(cfg: ScenarioConfig, seed: int, n: int) -> list[Tables]:
    """Episodes 0..n-1 of the stream keyed by seed, as the draw's blocks."""
    return list(episode_blocks(cfg, seed, range(n), make_library(cfg, seed)))


def states_of(blocks: Iterable[Tables]) -> list[EpisodeState]:
    """The blocks' states, in order."""
    return [state for block in blocks for state in block.states]


def picks_of(action: ActionMatrix) -> list[int]:
    """An action's row of PAIRS indices, as score and the block stages carry it."""
    return [PAIRS.index(action.pair(v)) for v in range(len(action.offload))]


# ---------------------------------------------------------------------------
# one state's entries of a Tables row, laid out per sub-task over its
# feasible pairs, for tests that compare them against the scalar formulas.
# Each takes a (block, row) pair, or a state, read as a block of one.


def _block_row(of: EpisodeState | tuple[Tables, int]) -> tuple[Tables, int]:
    return (Tables([of]), 0) if isinstance(of, EpisodeState) else of


def feasible_of(of) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each sub-task's feasible pairs, ascending, from the Tables row."""
    table, row = _block_row(of)
    return tuple(FEASIBLE[p] for p in table.pattern[row].tolist())


def hits_of(of) -> tuple[bool, ...]:
    """Each sub-task's cache hit, from Tables.hits on the row."""
    table, row = _block_row(of)
    return tuple(table.hits[row].tolist())


def _row_entries(of, array_of) -> tuple[tuple[float, ...], ...]:
    table, row = _block_row(of)
    return tuple(tuple(by_hit[hit][PAIRS.index(pair)] for pair in feas)
                 for by_hit, hit, feas in zip(array_of(table)[row].tolist(),
                                              hits_of((table, row)),
                                              feasible_of((table, row))))


def seconds_of(of) -> tuple[tuple[float, ...], ...]:
    """Each feasible pair's time, at the row's own hits, aligned with feasible_of."""
    return _row_entries(of, lambda table: table.seconds)


def costs_of(of, prices: PriceVector) -> tuple[tuple[float, ...], ...]:
    """Each feasible pair's cost, at the row's own hits, aligned with feasible_of."""
    return _row_entries(of, lambda table: table.costs(prices))


def retained_of(kind: str, state: EpisodeState) -> tuple[int, ...]:
    """policies.baseline_cache of a state's block of one."""
    return tuple(baseline_cache(kind, Tables([state]))[0].tolist())


# ---------------------------------------------------------------------------
# deliberately naive references that library code is checked against


def reference_hits(state: EpisodeState) -> tuple[bool, ...]:
    """The hit rule on the starting placement, without Tables.hits."""
    return tuple(st.out_rank > 0 and is_hit(state.cache, st.out_rank)
                 for st in state.task)


# The scalar labelling path as it stood before labelling ran in blocks,
# copied from the library: per-sub-task time, feasibility and cost
# formulas, per-state cost rows, the list solver, and one scaling call per
# state. It shares no code with Tables, block_argmin or encode_states.


def reference_return_leg(st: SubTask, state: EpisodeState) -> float:
    """Satellite-to-vehicle delivery time for the sub-task's output."""
    return transmit_time(st.d_out, state.link.rate_fh) + state.link.prop_vs


def reference_feasible_actions(st: SubTask,
                               state: EpisodeState) -> tuple[tuple[int, int], ...]:
    """Feasible (offload, cache) pairs, ascending.

    Upload must offload; Download must not. When the output's return leg
    no longer fits in the coverage window, the result has to be cached
    for a later pass, which pins the cache bit to 1.
    """
    cat = st.category
    if cat is Category.UPLOAD:
        return ((1, 0), (1, 1))
    within = reference_return_leg(st, state) < state.t_c
    if cat is Category.DOWNLOAD:
        return ((0, 0), (0, 1)) if within else ((0, 1),)
    return PAIRS if within else ((0, 1), (1, 1))


def reference_subtask_time(st: SubTask, a_of: int, hit: bool,
                           state: EpisodeState) -> float:
    """Seconds until this sub-task's result is back at the vehicle."""
    link = state.link
    cat = st.category
    if cat is Category.UPLOAD:
        return (transmit_time(st.d_in, link.rate_fh) + link.prop_vs
                + transmit_time(st.d_in, link.rate_bh) + link.prop_sg)
    back = reference_return_leg(st, state)
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


def reference_subtask_cost(st: SubTask, a_of: int, a_ch: int, hit: bool, t: float,
                           prices: PriceVector) -> float:
    """This sub-task's contribution to the episode reward, given its time t."""
    live = 0.0 if hit else 1.0  # a hit consumes no compute or offload budget
    return (prices.comp * (1 - a_of) * st.zeta * live
            + prices.comm * a_of * st.d_in * live
            + prices.cache * a_ch * st.d_out
            + prices.cpl * t)


def reference_cost_rows(state: EpisodeState, prices: PriceVector,
                        ) -> tuple[list[tuple[tuple[int, int], ...]], list[list[float]]]:
    """Each sub-task's feasible pairs and their costs, rebuilt on every call."""
    hits = reference_hits(state)
    feasible = [reference_feasible_actions(st, state) for st in state.task]
    rows = [[reference_subtask_cost(st, of, ch, hit,
                                    reference_subtask_time(st, of, hit, state), prices)
             for of, ch in feas]
            for st, feas, hit in zip(state.task, feasible, hits)]
    return feasible, rows


def reference_lexicographic_argmin(tables: Sequence[Sequence[float]],
                                   ) -> tuple[tuple[int, ...], float]:
    """First minimum, in row-major order, of the left-fold sum over tables."""
    mins = [min(t) for t in tables]
    target = list(itertools.accumulate(mins))  # partial sums of the optimum

    def reaches_optimum(v: int, acc: float) -> bool:
        if acc == target[v]:
            return True
        for k in range(v + 1, len(tables)):
            acc += mins[k]
            if acc == target[k]:
                return True
        return False

    picks: list[int] = []
    total = 0.0
    for v, table in enumerate(tables):
        # the fold starts at the first cost itself, as np.add.outer does
        i = next(i for i, cost in enumerate(table)
                 if reaches_optimum(v, total + cost if v else cost))
        picks.append(i)
        total = total + table[i] if v else table[i]
    return tuple(picks), float(total)


def reference_solve_optimal(state: EpisodeState,
                            prices: PriceVector) -> tuple[ActionMatrix, float]:
    """Minimum-reward action over the pre-classified joint action space."""
    feasible, rows = reference_cost_rows(state, prices)
    picks, value = reference_lexicographic_argmin(rows)
    pairs = [f[i] for f, i in zip(feasible, picks)]
    return ActionMatrix(offload=tuple(p[0] for p in pairs),
                        cache=tuple(p[1] for p in pairs)), value


def reference_encode_state(state: EpisodeState, scaler: FeatureScaler) -> np.ndarray:
    """Layout v1, scaled one vector at a time (no clamp counting)."""
    link = state.link
    raw = [state.t_c, link.rate_fh, link.rate_bh, link.prop_vs, link.prop_sg,
           state.cpu_rate]
    delta, num_ranks = state.cache.delta, state.cache.num_ranks
    for st, hit in zip(state.task, reference_hits(state)):
        cat = st.category
        pop = request_probability(st.out_rank, delta, num_ranks) if st.out_rank else 0.0
        raw += [st.zeta, st.d_in, st.d_out, st.rho,
                1.0 if cat is Category.COMPUTE else 0.0,
                1.0 if cat is Category.DOWNLOAD else 0.0,
                1.0 if hit else 0.0,
                pop]
    raw = np.asarray(raw, dtype=np.float64)
    return (np.clip(raw, scaler.lo, scaler.hi) - scaler.lo) / (scaler.hi - scaler.lo)


def reference_label_states(states: Iterable[EpisodeState], prices: PriceVector,
                           scaler: FeatureScaler) -> list[Demonstration]:
    """Solve and encode pre-drawn states one at a time; episode ids count from 0."""
    demos = []
    for i, state in enumerate(states):
        action, value = reference_solve_optimal(state, prices)
        demos.append(Demonstration(episode_id=i,
                                   features=reference_encode_state(state, scaler),
                                   labels=action.offload + action.cache,
                                   opt_reward=value))
    return demos


def reference_write_dataset(path, demos: Demonstrations, cfg: ScenarioConfig) -> None:
    """write_dataset's bytes, spelled row by row with one repr() per field
    (no validation)."""
    lines = [f"#satedge-dataset v1 config={scenario_hash(cfg)} layout={LAYOUT_VERSION} "
             f"subtasks={cfg.num_subtasks} features={feature_dim(cfg.num_subtasks)}"]
    for i, row, bits, value in zip(demos.episode_id.tolist(), demos.features,
                                   demos.labels.tolist(), demos.opt_reward.tolist()):
        lines.append(f"{i},{','.join(map(repr, row.tolist()))},{''.join(map(str, bits))},"
                     f"{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_reward_and_time(state: EpisodeState, action: ActionMatrix,
                              prices: PriceVector) -> tuple[float, float]:
    """(reward, completion_time) from one time and one cost formula per pick.

    Reads no derived view or cost table of the state, nor the library's
    tables; the action must be feasible.
    """
    cost = seconds = 0.0
    for v, (st, hit) in enumerate(zip(state.task, reference_hits(state))):
        of, ch = action.pair(v)
        t = reference_subtask_time(st, of, hit, state)
        cost += reference_subtask_cost(st, of, ch, hit, t, prices)
        seconds += t
    return cost, seconds


def reference_baseline_cache(kind: str, state: EpisodeState) -> tuple[int, ...]:
    """Retention bits from a fresh replay of every output on each call."""
    cache = apply_caching_action(state.cache, state.task, (1,) * len(state.task), kind)
    return tuple(int(st.d_out > 0.0 and is_hit(cache, st.out_rank)) for st in state.task)


# The per-state scoring path as it stood before scoring ran in blocks:
# project by Hamming distance over each sub-task's feasible list, the
# baselines' propose-retain-project pipeline, per-state decoding and the
# per-state report loop. They read the scalar formulas above, never a
# Tables block.


def reference_nearest_feasible(feas: tuple[tuple[int, int], ...],
                               pair: tuple[int, int]) -> tuple[int, int]:
    """The pair in feas nearest to pair by Hamming distance; ties go to the smaller."""
    if pair in feas:
        return pair
    return min(feas, key=lambda f: ((f[0] != pair[0]) + (f[1] != pair[1]), f))


def _projected(state: EpisodeState, pairs: Iterable[tuple[int, int]]) -> ActionMatrix:
    feasible = [reference_feasible_actions(st, state) for st in state.task]
    projected = [reference_nearest_feasible(feas, pair) for feas, pair in zip(feasible, pairs)]
    return ActionMatrix(offload=tuple(of for of, _ in projected),
                        cache=tuple(ch for _, ch in projected))


def reference_baseline_proposal(offload_kind: str, cache_kind: str, state: EpisodeState,
                                prices: PriceVector) -> list[tuple[int, int]]:
    """A baseline's pairs before projection: offload rule and retention bits."""
    n = len(state.task)
    if offload_kind == "le":
        a_of = (0,) * n
    elif offload_kind == "to":
        a_of = (1,) * n
    elif offload_kind == "go":
        feasible, rows = reference_cost_rows(state, prices)
        a_of = tuple(feas[row.index(min(row))][0] for feas, row in zip(feasible, rows))
    else:
        raise ValueError(f"unknown offload baseline {offload_kind!r}")
    return list(zip(a_of, reference_baseline_cache(cache_kind, state)))


def reference_baseline_policy(offload_kind: str, cache_kind: str, state: EpisodeState,
                              prices: PriceVector) -> ActionMatrix:
    """Full baseline pipeline: propose, cache by retention, project."""
    return _projected(state, reference_baseline_proposal(offload_kind, cache_kind,
                                                         state, prices))


def reference_decode_actions(probs: np.ndarray, state: EpisodeState) -> ActionMatrix:
    """Threshold each bit at 0.5 and project infeasible pairs."""
    n = len(state.task)
    bits = [1 if p > 0.5 else 0 for p in probs.tolist()]
    return _projected(state, [(bits[v], bits[n + v]) for v in range(n)])


def reference_action_report(actions: Sequence[ActionMatrix], demos: Sequence[Demonstration],
                            states: Sequence[EpisodeState],
                            prices: PriceVector) -> dict[str, float]:
    """action_report's metrics from one state at a time, in episode order."""
    exact = bit_ok = bit_total = 0
    sum_reward = sum_time = sum_opt = 0.0
    for act, demo, state in zip(actions, demos, states):
        bits = act.offload + act.cache
        exact += int(bits == demo.labels)
        bit_ok += sum(a == b for a, b in zip(bits, demo.labels))
        bit_total += len(bits)
        cost, seconds = reference_reward_and_time(state, act, prices)
        sum_reward += cost
        sum_time += seconds
        sum_opt += demo.opt_reward
    n = len(actions)
    return {
        "exact_match": exact / n,
        "per_bit_acc": bit_ok / bit_total,
        "mean_reward": sum_reward / n,
        "mean_completion_time_s": sum_time / n,
        "reward_ratio_vs_opt": sum_reward / sum_opt,
    }


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


def reference_stream_rng(seed: int, episode: int, tag: int) -> np.random.Generator:
    """One stream of one episode, seeded by numpy as stream v1 defines it.

    Tag 0, the task stream, seeds twice: two words of its SeedSequence are
    joined high first into a 64-bit int, which default_rng hashes again.
    """
    if tag == 0:
        words = np.random.SeedSequence((seed, episode, 0)).generate_state(2)
        return np.random.default_rng((int(words[0]) << 32) | int(words[1]))
    return np.random.default_rng(np.random.SeedSequence((seed, episode, tag)))


def reference_episode_state(cfg: ScenarioConfig, seed: int, episode: int,
                            library: tuple[float, ...]) -> EpisodeState:
    """Episode `episode` drawn alone, each stream seeded by numpy (reference_stream_rng).

    The link jitters each hop's SNR by a uniform dB offset, fronthaul
    first; an orbit window starts its pass at a uniform offset. Fixed
    coverage draws nothing from the orbit stream (tag 3).
    """
    task = generate_task(reference_stream_rng(seed, episode, 0), cfg, library)
    rng = reference_stream_rng(seed, episode, 1)
    j_fh = float(rng.uniform(-cfg.snr_jitter_db, cfg.snr_jitter_db))
    j_bh = float(rng.uniform(-cfg.snr_jitter_db, cfg.snr_jitter_db))
    link = LinkState(
        rate_fh=link_rate(cfg.rain_attenuation, cfg.bandwidth_fh_hz,
                          snr_from_db(cfg.snr_fh_db + j_fh)),
        rate_bh=link_rate(cfg.rain_attenuation, cfg.bandwidth_bh_hz,
                          snr_from_db(cfg.snr_bh_db + j_bh)),
        prop_vs=cfg.prop_vs_s, prop_sg=cfg.prop_sg_s)
    if cfg.coverage_mode == "fixed":
        t_c = cfg.coverage_s
    else:
        params = orbit_params(cfg)
        rng = reference_stream_rng(seed, episode, 3)
        t_c = coverage_time(float(rng.uniform(0.0, earth_central_angle(params))), params)
    cache = reference_random_placement(cfg, library, reference_stream_rng(seed, episode, 2))
    return EpisodeState(task=task, t_c=t_c, link=link, cpu_rate=cfg.cpu_rate_hz, cache=cache)


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
    """A partially filled cache: shuffled ranks packed up to a random target.

    The target is U[0, placement_fill_max] of capacity; recency stamps
    follow insertion order, starting from empty_cache's clock.
    """
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

    Deliberately naive (re-scores every combination through score, as
    reward does, on the state's block of one) so it shares nothing with
    solve_optimal beyond the evaluator. Only sane for small |V|.
    """
    feas = [set(reference_feasible_actions(st, state)) for st in state.task]
    block = Tables([state])
    best: tuple[ActionMatrix, float] | None = None
    for combo in itertools.product(PAIRS, repeat=len(state.task)):
        if any(pair not in feas[v] for v, pair in enumerate(combo)):
            continue
        action = ActionMatrix(offload=tuple(p[0] for p in combo),
                              cache=tuple(p[1] for p in combo))
        picks = np.array([[PAIRS.index(pair) for pair in combo]], dtype=np.intp)
        value = score([block], picks, prices)[0][0]
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


# ---------------------------------------------------------------------------
# the training loop as it ran before its workspace: every pass and step
# allocates its arrays afresh; dil.train_policy must match it bit for bit


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_acts(model: MLPModel, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    acts.append(_reference_sigmoid(a @ model.weights[-1] + model.biases[-1]))
    return acts


def reference_forward(model: MLPModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return _reference_acts(model, np.atleast_2d(x))[-1]


def reference_gradients(model: MLPModel, x: np.ndarray, labels: np.ndarray,
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    acts = _reference_acts(model, x)
    delta = (acts[-1] - y) / y.size
    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0.0)
    return grad_w, grad_b


def reference_train_policy(demos: Demonstrations, cfg: TrainConfig, seed: int) -> TrainResult:
    """dil.train_policy with per-array Adam moments and allocating passes."""
    x, y = demos.features, demos.labels.astype(np.float64)
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = split_indices(len(demos), cfg.train_frac, cfg.val_frac, rng)
    dims = (x.shape[1],) + (cfg.hidden_width,) * cfg.hidden_layers + (y.shape[1],)
    model = init_model(dims, seed)
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, step = cfg.adam_beta1, cfg.adam_beta2, 0
    x_tr, y_tr, x_va, y_va = x[train_idx], y[train_idx], x[val_idx], y[val_idx]

    def losses() -> tuple[float, float]:
        return (cross_entropy(reference_forward(model, x_tr), y_tr),
                cross_entropy(reference_forward(model, x_va), y_va))

    def snapshot() -> MLPModel:
        return replace(model, weights=[w.copy() for w in model.weights],
                       biases=[b.copy() for b in model.biases])

    tl, best_val = losses()
    best, best_epoch, curve = snapshot(), 0, [(0, tl, best_val)]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_idx))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad_w, grad_b = reference_gradients(model, x_tr[batch], y_tr[batch])
            step += 1
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for p, g, mp, vp in zip(params, grad_w + grad_b, m, v):
                mp *= b1
                mp += (1.0 - b1) * g
                vp *= b2
                vp += (1.0 - b2) * (g * g)
                p -= cfg.learning_rate * (mp / c1) / (np.sqrt(vp / c2) + cfg.adam_eps)
        tl, vl = losses()
        curve.append((epoch, tl, vl))
        if vl < best_val:
            best_val, best, best_epoch = vl, snapshot(), epoch
        elif epoch - best_epoch >= cfg.patience:
            break
    return TrainResult(model=best, curve=curve, best_epoch=best_epoch,
                       train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)
