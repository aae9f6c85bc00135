"""Seeded episode streams: tasks, jittered links, coverage draws, placements.

Every random quantity derives from (run seed, episode index, stream tag)
through SeedSequence, so any episode can be regenerated in isolation and
two runs with the same seed agree byte-for-byte. The content library
(bytes per popularity rank) is drawn once per run and shared by all
episodes, which keeps cache capacity accounting coherent.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .caching import CacheState
from .channel import LinkState, snr_from_db
from .config import ScenarioConfig, orbit_params
from .evaluator import EpisodeState, PriceVector
from .geometry import coverage_time, earth_central_angle
from .workload import generate_task

# stream tags; changing these re-keys every dataset
_TASK, _LINK, _PLACE, _ORBIT, _LIBRARY = 0, 1, 2, 3, 9


def _rng(seed: int, episode: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, episode, tag)))


def _task_seed(seed: int, episode: int) -> int:
    words = np.random.SeedSequence((seed, episode, _TASK)).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def prices_from(cfg: ScenarioConfig) -> PriceVector:
    return PriceVector(comp=cfg.price_comp, comm=cfg.price_comm,
                       cache=cfg.price_cache, cpl=cfg.price_cpl)


def make_library(cfg: ScenarioConfig, seed: int) -> tuple[float, ...]:
    """Bytes per popularity rank, fixed for the whole run."""
    rng = _rng(seed, 0, _LIBRARY)
    sizes = rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes, size=cfg.num_ranks)
    return tuple(float(s) for s in sizes)


def library_capacity(cfg: ScenarioConfig, library: tuple[float, ...]) -> float:
    return cfg.capacity_fraction * sum(library)


def random_placement(cfg: ScenarioConfig, library: tuple[float, ...],
                     rng: np.random.Generator) -> CacheState:
    """Partially filled cache: shuffled ranks packed up to a random target.

    The target is U[0, placement_fill_max] of capacity, so episodes range
    from an empty cache to a half-full one under the defaults. Recency
    stamps follow insertion order. The state's sizes are the library tuple
    itself.
    """
    capacity = library_capacity(cfg, library)
    target = float(rng.uniform(0.0, cfg.placement_fill_max)) * capacity
    total = 0.0
    placement = [0] * cfg.num_ranks
    recency = [0] * cfg.num_ranks
    clock = 1
    for idx in rng.permutation(cfg.num_ranks).tolist():
        size = library[idx]
        if total + size <= target:
            placement[idx] = 1
            recency[idx] = clock
            clock += 1
            total += size
    return CacheState(sizes=library, placement=tuple(placement),
                      capacity_bytes=capacity, delta=cfg.zipf_delta,
                      recency=tuple(recency), clock=clock)


def draw_link(cfg: ScenarioConfig, rng: np.random.Generator) -> LinkState:
    j_fh = float(rng.uniform(-cfg.snr_jitter_db, cfg.snr_jitter_db))
    j_bh = float(rng.uniform(-cfg.snr_jitter_db, cfg.snr_jitter_db))
    return LinkState.build(
        attenuation=cfg.rain_attenuation,
        bandwidth_fh_hz=cfg.bandwidth_fh_hz,
        bandwidth_bh_hz=cfg.bandwidth_bh_hz,
        snr_fh=snr_from_db(cfg.snr_fh_db + j_fh),
        snr_bh=snr_from_db(cfg.snr_bh_db + j_bh),
        prop_vs=cfg.prop_vs_s,
        prop_sg=cfg.prop_sg_s,
    )


def draw_coverage(cfg: ScenarioConfig, rng: np.random.Generator) -> float:
    """Window of a pass that starts at a uniform offset (orbit coverage mode)."""
    params = orbit_params(cfg)
    theta_0 = earth_central_angle(params)
    theta_m = float(rng.uniform(0.0, theta_0))
    return coverage_time(theta_m, params)


def episode_state(cfg: ScenarioConfig, seed: int, episode: int,
                  library: tuple[float, ...]) -> EpisodeState:
    """Regenerate episode `episode` of the stream keyed by `seed`."""
    task = generate_task(_task_seed(seed, episode), cfg, library)
    link = draw_link(cfg, _rng(seed, episode, _LINK))
    # fixed mode draws nothing, so it builds no orbit-stream generator
    t_c = (cfg.coverage_s if cfg.coverage_mode == "fixed"
           else draw_coverage(cfg, _rng(seed, episode, _ORBIT)))
    cache = random_placement(cfg, library, _rng(seed, episode, _PLACE))
    return EpisodeState(task=task, t_c=t_c, link=link,
                        cpu_rate=cfg.cpu_rate_hz, cache=cache)


def episode_stream(cfg: ScenarioConfig, seed: int, n: int,
                   ) -> Iterator[tuple[int, EpisodeState]]:
    if n < 0:
        raise ValueError("episode count must be nonnegative")
    library = make_library(cfg, seed)
    for i in range(n):
        yield i, episode_state(cfg, seed, i, library)
