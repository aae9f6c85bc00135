"""Seeded episode streams: tasks, jittered links, coverage draws, placements.

Every random quantity derives from (run seed, episode index, stream tag)
through SeedSequence, so any episode can be regenerated in isolation and
two runs with the same seed agree byte-for-byte. A stream hashes its
episodes' keys in blocks: `seeding` re-implements numpy's SeedSequence
hashing bit for bit over a block's keys at once, and numpy seeds a fresh
PCG64 for each stream of each episode from its key's words. A block's
task chains are not drawn one numpy call per number: each episode's
first 4V raw PCG64 outputs are read with one ``random_raw`` call, and
`workload.decode_tasks` decodes the whole block as arrays, following how
numpy's Generator consumes raw output (doubles, the buffered 32-bit half
that rank draws share, Lemire's rejection test). The rare rows it cannot
decode exactly, a rejected rank word or a zero compute rho, are drawn
again by generate_task from a fresh generator on their task key. Only a
lone episode_state call is keyed by numpy's own SeedSequence and drawn
by generate_task: the spec every block is tested against. A block is
drawn whole before its first state is yielded, and its evaluator.Tables
is built from the columns decode_tasks decoded (category codes, sizes,
rho and ranks) and the t_c, link and cpu_rate of each drawn state; a
block holding a row left to generate_task gathers its columns from the
objects instead. Hits are not part of those columns: they always come
from a state's own cache. The content library (bytes per popularity
rank) is drawn once per run and shared by all episodes, which keeps
cache capacity accounting coherent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .caching import CacheState
from .channel import LinkState, snr_from_db
from .config import ScenarioConfig, orbit_params
from .evaluator import BLOCK_STATES, EpisodeState, PriceVector, tabulate
from .geometry import coverage_time, earth_central_angle
from .workload import TaskGraph, decode_tasks, generate_task

if TYPE_CHECKING:
    from . import seeding

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


def _numpy_rngs(cfg: ScenarioConfig, seed: int, episode: int,
                ) -> tuple[np.random.Generator, ...]:
    """An episode's task, link, placement and orbit generators, seeded by numpy."""
    # fixed mode draws nothing, so it builds no orbit-stream generator
    orbit = None if cfg.coverage_mode == "fixed" else _rng(seed, episode, _ORBIT)
    return (np.random.default_rng(_task_seed(seed, episode)),
            _rng(seed, episode, _LINK), _rng(seed, episode, _PLACE), orbit)


def _block_rng_states(cfg: ScenarioConfig, seed: int,
                      ids: Sequence[int]) -> list[tuple[seeding.Key, ...]]:
    """Each episode's PCG64 keys, in _numpy_rngs order, hashed as one block."""
    # imported here, not above: seeding imports numpy.random, which `import numpy`
    # leaves to first use, so `import satedge` does not pay for it
    from . import seeding
    tags = (_TASK, _LINK, _PLACE) + (() if cfg.coverage_mode == "fixed" else (_ORBIT,))
    words = seeding.key_state(seed, ids, tags, 8)
    # _task_seed joins the task key's first two words high first, and
    # default_rng splits that int back into words low first
    task = seeding.generate_state(words[0, 1::-1], 8)
    rows = (np.ascontiguousarray(w.T) for w in (task, *words[1:]))  # a key's 8 words each
    return list(zip(*(map(seeding.Key, w) for w in rows)))


def _generator(key: seeding.Key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(key))


def episode_state(cfg: ScenarioConfig, seed: int, episode: int,
                  library: tuple[float, ...],
                  rngs: tuple[np.random.Generator | None, ...] | None = None,
                  task: TaskGraph | None = None) -> EpisodeState:
    """Regenerate episode `episode` of the stream keyed by `seed`.

    `rngs` are the episode's task, link, placement and orbit (None in
    fixed coverage) generators, already seeded; by default numpy seeds
    them here. `task`, when given, is the episode's chain, already drawn,
    and the task generator is not read: it may be None.
    """
    if rngs is None:
        rngs = _numpy_rngs(cfg, seed, episode)
    task_rng, link_rng, place_rng, orbit_rng = rngs
    if task is None:
        task = generate_task(task_rng, cfg, library)
    link = draw_link(cfg, link_rng)
    t_c = cfg.coverage_s if orbit_rng is None else draw_coverage(cfg, orbit_rng)
    cache = random_placement(cfg, library, place_rng)
    return EpisodeState(task=task, t_c=t_c, link=link,
                        cpu_rate=cfg.cpu_rate_hz, cache=cache)


def episode_states(cfg: ScenarioConfig, seed: int, episodes: Sequence[int],
                   library: tuple[float, ...]) -> Iterator[EpisodeState]:
    """The listed episodes of the stream keyed by `seed`, in order.

    Each state equals ``episode_state(cfg, seed, e, library)`` and is drawn
    by one call to it. Ids are hashed in blocks of up to BLOCK_STATES, and
    each episode gets fresh generators seeded from its keys. A block's task
    chains are decoded from raw output before its first state, and the
    whole block is drawn and tabulated before its first state is yielded:
    its Tables is built from the columns decode_tasks decoded, so every
    state already holds its row.
    """
    for start in range(0, len(episodes), BLOCK_STATES):
        ids = episodes[start:start + BLOCK_STATES]
        block = _block_rng_states(cfg, seed, ids)
        raw = np.array([np.random.PCG64(keys[0]).random_raw(4 * cfg.num_subtasks)
                        for keys in block])
        chains, columns = decode_tasks(raw, cfg, library)
        drawn = []
        for e, (task_key, *keys), task in zip(ids, block, chains):
            link, place, *orbit = map(_generator, keys)  # fixed mode seeds no orbit stream
            task_rng = _generator(task_key) if task is None else None  # left to generate_task
            rngs = (task_rng, link, place, orbit[0] if orbit else None)
            drawn.append(episode_state(cfg, seed, e, library, rngs, task))
        # a chain generate_task drew has no decoded columns: gather them all
        tabulate(drawn, None if None in chains else columns)
        yield from drawn


def episode_stream(cfg: ScenarioConfig, seed: int, n: int,
                   ) -> Iterator[tuple[int, EpisodeState]]:
    if n < 0:
        raise ValueError("episode count must be nonnegative")
    return enumerate(episode_states(cfg, seed, range(n), make_library(cfg, seed)))
