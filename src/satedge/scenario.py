"""Seeded episode streams: tasks, jittered links, coverage draws, placements.

Every random quantity derives from (run seed, episode index, stream tag)
through SeedSequence, so any episode can be regenerated in isolation and
two runs with the same seed agree byte-for-byte. An episode's keys, drawn
alone or in a block, are hashed by `seeding`, which re-implements numpy's
SeedSequence hashing bit for bit over a block's keys at once, and numpy
seeds a fresh PCG64 for each stream of each episode from its key's words.

episode_blocks is the one draw: it yields the listed episodes as
evaluator.Tables blocks drawn as arrays, and episode_state is the one
state of a block of one. Each episode's first 4V raw task outputs are
read with one ``random_raw`` call and `workload.decode_tasks` decodes
the block's chains, following how numpy's Generator consumes raw output
(doubles, the buffered 32-bit half that rank draws share, Lemire's
rejection test). A row it gives up on (a rejected rank word or a zero
compute rho) is drawn by generate_task from a fresh generator on its
task key, and its chain is written into the block's task columns. Link
jitters, orbit offsets and placement fills are decoded from raw output
the same way; each placement's permutation is one Generator shuffle per
episode, and the greedy packing runs on N-vectors. The SNR, rate and
coverage formulas run per episode on Python floats. A drawn block builds
its EpisodeState objects only when first read, from its arrays and any
cache a persistent rollout carried into them; no CLI stage reads them.
The same draw, one numpy call at a time from numpy-seeded generators,
is tests/conftest.py's reference_episode_state.

The content library (bytes per popularity rank) is drawn once per run,
from numpy's own SeedSequence, and shared by all episodes, which keeps
cache capacity accounting coherent.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .caching import CacheState, check_budget, left_sum
from .channel import LinkState, link_rate, snr_from_db
from .config import ScenarioConfig, orbit_params
from .evaluator import BLOCK_STATES, EpisodeState, PriceVector, Tables
from .geometry import coverage_time, earth_central_angle
from .workload import decode_tasks, generate_task, task_chains, write_chain

if TYPE_CHECKING:
    from . import seeding

# stream tags; changing these re-keys every dataset
_TASK, _LINK, _PLACE, _ORBIT, _LIBRARY = 0, 1, 2, 3, 9


def prices_from(cfg: ScenarioConfig) -> PriceVector:
    return PriceVector(comp=cfg.price_comp, comm=cfg.price_comm,
                       cache=cfg.price_cache, cpl=cfg.price_cpl)


def make_library(cfg: ScenarioConfig, seed: int) -> tuple[float, ...]:
    """Bytes per popularity rank, fixed for the whole run."""
    from . import seeding  # imported here for the reason _block_rng_states gives
    seeding.check_run_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, _LIBRARY)))
    sizes = rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes, size=cfg.num_ranks)
    return tuple(float(s) for s in sizes)


def library_capacity(cfg: ScenarioConfig, library: tuple[float, ...]) -> float:
    return cfg.capacity_fraction * left_sum(library)


def _block_rng_states(cfg: ScenarioConfig, seed: int,
                      ids: Sequence[int]) -> list[tuple[seeding.Key, ...]]:
    """Each episode's task, link, placement and orbit PCG64 keys, hashed as one block.

    Fixed coverage draws nothing from the orbit stream, so it gets no key.
    """
    # imported here, not above: seeding imports numpy.random, which `import numpy`
    # leaves to first use, so `import satedge` does not pay for it
    from . import seeding
    tags = (_TASK, _LINK, _PLACE) + (() if cfg.coverage_mode == "fixed" else (_ORBIT,))
    words = seeding.key_state(seed, ids, tags, 8)
    # stream v1 joins the task key's first two words high first into one
    # int, which default_rng hashes again split into words low first
    task = seeding.generate_state(words[0, 1::-1], 8)
    rows = (np.ascontiguousarray(w.T) for w in (task, *words[1:]))  # a key's 8 words each
    return list(zip(*(map(seeding.Key, w) for w in rows)))


def episode_state(cfg: ScenarioConfig, seed: int, episode: int,
                  library: tuple[float, ...]) -> EpisodeState:
    """Regenerate episode `episode` of the stream keyed by `seed`: the one
    state of its block of one."""
    (block,) = episode_blocks(cfg, seed, [episode], library)
    return block.states[0]


def _uniform(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` of each raw PCG64 output, as numpy reads it."""
    return low + (high - low) * ((raw >> np.uint64(11)) * 2.0**-53)


def _draw_caches(cfg: ScenarioConfig, library: tuple[float, ...], capacity: float,
                 keys: Sequence[seeding.Key]) -> tuple[np.ndarray, ...]:
    """Each placement key's partially filled cache, packed on N-vectors.

    A cache packs shuffled ranks up to a target of U[0, placement_fill_max]
    of capacity, so episodes range from an empty cache to a half-full one
    under the defaults; recency stamps follow insertion order. The fill is
    ``uniform`` of the key's first raw output, and the order, numpy's
    ``permutation(R)``, is a Generator's shuffle of the episode's row of
    ranks. The packing then walks the R rank positions for all N episodes
    at once: a rank fits where the running total plus its size stays within
    the target, one float add per position, as a scalar loop adds. Returns
    the N x (1 + R) placement of Tables, the N x R recency and the N clocks.
    """
    ranks = cfg.num_ranks
    fills, perms = [], np.tile(np.arange(ranks), (len(keys), 1))
    for row, key in enumerate(keys):
        bits = np.random.PCG64(key)
        fills.append(bits.random_raw())
        np.random.Generator(bits).shuffle(perms[row])
    target = _uniform(np.array(fills, dtype=np.uint64), 0.0, cfg.placement_fill_max) * capacity
    sizes = np.array(library, dtype=np.float64)[perms]  # in each episode's insertion order
    fits = np.empty(perms.shape, dtype=bool)
    total = np.zeros(len(keys))
    for pos in range(ranks):
        packed = total + sizes[:, pos]
        fits[:, pos] = fit = packed <= target
        total = np.where(fit, packed, total)
    rows = np.arange(len(keys))[:, None]
    placement = np.zeros((len(keys), 1 + ranks), dtype=bool)
    placement[rows, perms + 1] = fits
    recency = np.zeros(perms.shape, dtype=np.intp)  # stamps 1, 2, ... in insertion order
    stamps = np.cumsum(fits, axis=1)
    recency[rows, perms] = np.where(fits, stamps, 0)
    return placement, recency, 1 + stamps[:, -1]


def _drawn_states(cfg: ScenarioConfig, library: tuple[float, ...], capacity: float,
                  tasks: tuple[np.ndarray, ...], t_c: list[float],
                  rates: list[tuple[float, float]], placement: np.ndarray,
                  recency: np.ndarray, clock: np.ndarray) -> list[EpisodeState]:
    """The EpisodeState objects of a drawn block's arrays."""
    return [EpisodeState(task=task, t_c=t, cpu_rate=cfg.cpu_rate_hz,
                         link=LinkState(rate_fh=fh, rate_bh=bh, prop_vs=cfg.prop_vs_s,
                                        prop_sg=cfg.prop_sg_s),
                         cache=CacheState(sizes=library, placement=tuple(held),
                                          capacity_bytes=capacity, delta=cfg.zipf_delta,
                                          recency=tuple(stamps), clock=tick))
            for task, t, (fh, bh), held, stamps, tick in zip(
                task_chains(tasks, slice(None)), t_c, rates,
                placement[:, 1:].view(np.uint8).tolist(), recency.tolist(), clock.tolist())]


def _draw_block(cfg: ScenarioConfig, library: tuple[float, ...],
                keys: Sequence[tuple[seeding.Key, ...]], tasks: tuple[np.ndarray, ...]) -> Tables:
    """The block of episodes whose task columns `tasks` holds, drawn as arrays.

    Each link jitters both hops' SNR by a uniform dB offset, fronthaul
    first, and each orbit window starts its pass at a uniform offset;
    both decode their uniforms from raw output, and placements pack on
    N-vectors (_draw_caches). The SNR, rate and coverage formulas run per
    episode on Python floats: numpy's power, log2 and arccos may round
    otherwise.
    """
    _, link_keys, place_keys, *orbit_keys = zip(*keys)
    jitter = _uniform(np.array([np.random.PCG64(key).random_raw(2) for key in link_keys]),
                      -cfg.snr_jitter_db, cfg.snr_jitter_db).tolist()
    attenuation, fh_hz, bh_hz = cfg.rain_attenuation, cfg.bandwidth_fh_hz, cfg.bandwidth_bh_hz
    rates = [(link_rate(attenuation, fh_hz, snr_from_db(cfg.snr_fh_db + j_fh)),
              link_rate(attenuation, bh_hz, snr_from_db(cfg.snr_bh_db + j_bh)))
             for j_fh, j_bh in jitter]
    if orbit_keys:
        params = orbit_params(cfg)
        theta_m = _uniform(np.concatenate([np.random.PCG64(key).random_raw(1)
                                           for key in orbit_keys[0]]),
                           0.0, earth_central_angle(params))
        t_c = [coverage_time(theta, params) for theta in theta_m.tolist()]
    else:
        t_c = [cfg.coverage_s] * len(keys)
    capacity = library_capacity(cfg, library)
    check_budget(capacity, cfg.zipf_delta)  # as each CacheState would
    placement, recency, clock = _draw_caches(cfg, library, capacity, place_keys)
    links = np.empty((len(keys), 6))
    links[:, 0], links[:, 1:3] = t_c, rates
    links[:, 3:] = cfg.prop_vs_s, cfg.prop_sg_s, cfg.cpu_rate_hz
    n, sizes = len(keys), np.array(library, dtype=np.float64)
    caches = (placement, np.full(n, cfg.zipf_delta, np.float64), recency, clock,
              np.broadcast_to(sizes, (n, len(sizes))), np.full(n, capacity, np.float64))
    # the states are built later, from a copy of the config as it stands now
    return Tables.drawn(tasks, links, caches,
                        partial(_drawn_states, replace(cfg), library, capacity, tasks, t_c,
                                rates, placement, recency, clock))


def episode_blocks(cfg: ScenarioConfig, seed: int, episodes: Sequence[int],
                   library: tuple[float, ...]) -> Iterator[Tables]:
    """The listed episodes of the stream keyed by `seed`, in order, as
    Tables blocks of up to BLOCK_STATES states.

    A block's task chains are decoded from raw output first; a row
    decode_tasks gives up on gets generate_task's chain, drawn from a
    fresh generator on its task key. The block is then drawn as arrays
    (_draw_block), and its states are built only when read.
    """
    for start in range(0, len(episodes), BLOCK_STATES):
        ids = episodes[start:start + BLOCK_STATES]
        block = _block_rng_states(cfg, seed, ids)
        raw = np.array([np.random.PCG64(keys[0]).random_raw(4 * cfg.num_subtasks)
                        for keys in block])
        exact, tasks = decode_tasks(raw, cfg, library)
        for row in np.flatnonzero(~exact).tolist():
            rng = np.random.Generator(np.random.PCG64(block[row][0]))
            write_chain(tasks, row, generate_task(rng, cfg, library))
        yield _draw_block(cfg, library, block, tasks)
