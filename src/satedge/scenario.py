"""Seeded episode streams: tasks, jittered links, coverage draws, placements.

Every random quantity derives from (run seed, episode index, stream tag)
through SeedSequence, so any episode can be regenerated in isolation and
two runs with the same seed agree byte-for-byte. An episode's keys, drawn
alone or in a block, are hashed by `seeding`, which re-implements numpy's
SeedSequence hashing bit for bit over a block's keys at once, and numpy
seeds a fresh PCG64 for each stream of each episode from its key's words.
A block's task chains are not drawn one numpy call per number: each
episode's first 4V raw PCG64 outputs are read with one ``random_raw``
call, and `workload.decode_tasks` decodes the whole block as arrays,
following how numpy's Generator consumes raw output (doubles, the
buffered 32-bit half that rank draws share, Lemire's rejection test).
A lone episode_state call, and the rare block row decode_tasks cannot
decode exactly (a rejected rank word or a zero compute rho), draws its
chain by generate_task from a fresh generator on its task key. A block
is drawn whole before its first state is yielded, and its
evaluator.Tables is built from the columns decode_tasks decoded
(category codes, sizes, rho and ranks) and the t_c, link and cpu_rate of
each drawn state; a block holding a row left to generate_task gathers
its columns from the objects instead. Hits are not part of those
columns: they always come from a state's own cache. The content library
(bytes per popularity rank) is drawn once per run, from numpy's own
SeedSequence, and shared by all episodes, which keeps cache capacity
accounting coherent.
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


def _generator(key: seeding.Key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(key))


def episode_state(cfg: ScenarioConfig, seed: int, episode: int,
                  library: tuple[float, ...],
                  keys: tuple[seeding.Key, ...] | None = None,
                  task: TaskGraph | None = None) -> EpisodeState:
    """Regenerate episode `episode` of the stream keyed by `seed`.

    `keys` are the episode's task, link, placement and, in orbit coverage,
    orbit keys, as _block_rng_states returns them; by default they are
    hashed here. Each stream draws from a fresh generator on its key.
    `task`, when given, is the episode's chain, already drawn, and the
    task key is not read.
    """
    if keys is None:
        (keys,) = _block_rng_states(cfg, seed, [episode])
    task_key, link_key, place_key, *orbit_key = keys
    if task is None:
        task = generate_task(_generator(task_key), cfg, library)
    link = draw_link(cfg, _generator(link_key))
    t_c = draw_coverage(cfg, _generator(orbit_key[0])) if orbit_key else cfg.coverage_s
    cache = random_placement(cfg, library, _generator(place_key))
    return EpisodeState(task=task, t_c=t_c, link=link,
                        cpu_rate=cfg.cpu_rate_hz, cache=cache)


def episode_states(cfg: ScenarioConfig, seed: int, episodes: Sequence[int],
                   library: tuple[float, ...]) -> Iterator[EpisodeState]:
    """The listed episodes of the stream keyed by `seed`, in order.

    Each state equals ``episode_state(cfg, seed, e, library)`` and is drawn
    by one call to it, on the keys its block hashed. Ids are hashed in
    blocks of up to BLOCK_STATES. A block's task chains are decoded from
    raw output before its first state, and the whole block is drawn and
    tabulated before its first state is yielded: its Tables is built from
    the columns decode_tasks decoded, so every state already holds its row.
    """
    for start in range(0, len(episodes), BLOCK_STATES):
        ids = episodes[start:start + BLOCK_STATES]
        block = _block_rng_states(cfg, seed, ids)
        raw = np.array([np.random.PCG64(keys[0]).random_raw(4 * cfg.num_subtasks)
                        for keys in block])
        chains, columns = decode_tasks(raw, cfg, library)
        # a row decode_tasks gave up on is None: episode_state draws it
        drawn = [episode_state(cfg, seed, e, library, keys, task)
                 for e, keys, task in zip(ids, block, chains)]
        # a chain generate_task drew has no decoded columns: gather them all
        tabulate(drawn, None if None in chains else columns)
        yield from drawn


def episode_stream(cfg: ScenarioConfig, seed: int, n: int,
                   ) -> Iterator[tuple[int, EpisodeState]]:
    if n < 0:
        raise ValueError("episode count must be nonnegative")
    return enumerate(episode_states(cfg, seed, range(n), make_library(cfg, seed)))
