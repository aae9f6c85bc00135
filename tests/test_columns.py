"""The draw's array path against the object path, bit for bit.

episode_blocks draws each block as arrays: the columns decode_tasks
decoded, the links and the placement, from which Tables.drawn builds
the block and, on first read, its states. Tables(states) gathers the
same columns from the SubTask, LinkState, CacheState and EpisodeState
objects. Every float must match the object path exactly, compared
through .view(np.int64), and the independent references in conftest.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satedge import scenario
from satedge.caching import request_probability
from satedge.config import default_config, validate_config
from satedge.evaluator import BLOCK_STATES, Tables
from satedge.neural import FeatureScaler, _popularity, encode_state, encode_states
from satedge.scenario import episode_blocks, episode_state, make_library, prices_from

from conftest import (empty_cache, hits_of, reference_encode_state, reference_episode_state,
                      reference_hits, states_of)

SCENARIOS = {
    "fixed": {},
    "fixed-0.16s": {"coverage_s": 0.16},
    "orbit": {"coverage_mode": "orbit"},
    "fixed-V9": {"num_subtasks": 9},
    "orbit-V9-R1": {"coverage_mode": "orbit", "num_subtasks": 9, "num_ranks": 1},
    # uniform(0, rho_max) rounds to 0.0 about half the time: decode_tasks gives
    # up on most rows, and generate_task draws them
    "fixed-rho-subnormal": {"rho_max": 5e-324},
}
SEED = 11


def _same(a: np.ndarray, b: np.ndarray) -> None:
    """Equal shapes, dtypes and bits; float arrays compare as int64 words."""
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    assert np.array_equal(a, b)


def _assert_block_matches_objects(blocks, scen) -> None:
    """Each block against Tables built from its states' objects and against
    per-state encoding of fresh twins."""
    prices, scaler = prices_from(scen), FeatureScaler.from_scenario(scen)
    for block in blocks:
        objects = Tables(block.states)
        _same(block.seconds, objects.seconds)
        _same(block.pattern, objects.pattern)
        _same(block.costs(prices), objects.costs(prices))
        _same(block.hits, objects.hits)
        assert [tuple(h) for h in block.hits.tolist()] == [reference_hits(s)
                                                           for s in block.states]
        features = encode_states([block], scaler)
        _same(features, np.stack([encode_state(replace(s), scaler) for s in block.states]))
        _same(features, np.stack([reference_encode_state(s, scaler) for s in block.states]))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_drawn_blocks_match_the_object_path(name):
    scen = replace(default_config().scenario, **SCENARIOS[name])
    library = make_library(scen, SEED)
    blocks = list(episode_blocks(scen, SEED, range(BLOCK_STATES + 5), library))
    assert list(map(len, blocks)) == [BLOCK_STATES, 5]
    _assert_block_matches_objects(blocks, scen)
    # a lone draw's block of one is gathered from its objects
    for e in (0, BLOCK_STATES - 1, BLOCK_STATES + 4):
        table, row = divmod(e, BLOCK_STATES)
        table = blocks[table]
        alone = episode_state(scen, SEED, e, library)
        lone = Tables([alone])
        assert len(lone.pattern) == 1
        _same(lone.seconds, table.seconds[row:row + 1])
        _same(lone.pattern, table.pattern[row:row + 1])
        _same(lone.costs(prices_from(scen)), table.costs(prices_from(scen))[row:row + 1])
        assert hits_of(alone) == hits_of((table, row))
        _same(encode_state(alone, FeatureScaler.from_scenario(scen)),
              encode_states([table], FeatureScaler.from_scenario(scen))[row])


@pytest.mark.parametrize("name", ["fixed", "orbit"])
def test_carried_states_read_hits_from_their_own_cache(name):
    scen = replace(default_config().scenario, **SCENARIOS[name])
    drawn, = episode_blocks(scen, SEED, range(40), make_library(scen, SEED))
    # the empty caches below turn hits into misses
    assert any(any(hits_of((drawn, row))) for row in range(40))
    carried = [replace(s, cache=empty_cache(s.cache.sizes, s.cache.capacity_bytes,
                                            s.cache.delta)) for s in drawn.states]
    carried[::3] = drawn.states[::3]  # carried and drawn states interleaved in one block
    # popularity follows each state's own cache too, even a differently skewed one
    carried[2::3] = [replace(s, cache=replace(s.cache, delta=2.5)) for s in drawn.states[2::3]]
    block = Tables(carried)
    _assert_block_matches_objects([block], scen)
    assert np.array_equal(block.seconds, drawn.seconds)


@pytest.mark.parametrize("name", ["fixed", "orbit-V9-R1"])
@pytest.mark.parametrize("given_up", [[0], [7], [0, 39]], ids=["first", "middle", "ends"])
def test_a_block_with_rows_left_to_generate_task_matches(monkeypatch, name, given_up):
    """A row decode_tasks gives up on has no decoded columns: here they are
    spoiled, so a Tables built from them would differ or raise."""
    plain = scenario.decode_tasks

    def decode(raw, cfg, library):
        exact, columns = plain(raw, cfg, library)
        for row in given_up:
            exact[row] = False
            for column in columns:
                column[row] = -1 if column.dtype.kind == "i" else np.nan
        return exact, columns

    monkeypatch.setattr(scenario, "decode_tasks", decode)
    scen = replace(default_config().scenario, **SCENARIOS[name])
    library = make_library(scen, SEED)
    blocks = list(episode_blocks(scen, SEED, range(40), library))
    assert states_of(blocks) == [reference_episode_state(scen, SEED, e, library)
                                 for e in range(40)]
    _assert_block_matches_objects(blocks, scen)


@pytest.mark.parametrize("mode", ["fixed", "orbit"])
def test_rows_the_decoder_gives_up_on_equal_the_reference(monkeypatch, mode):
    """A config validate_config accepts, under which decode_tasks gives up on
    most rows of a block but not all, against the numpy-seeded lone draw."""
    scen = replace(default_config().scenario, rho_max=5e-324, coverage_mode=mode)
    validate_config(replace(default_config(), scenario=scen))
    plain, generated = scenario.generate_task, []

    def generate(*args):
        generated.append(args)
        return plain(*args)

    monkeypatch.setattr(scenario, "generate_task", generate)
    library = make_library(scen, 1)
    ids = range(BLOCK_STATES + 44)
    states = states_of(episode_blocks(scen, 1, ids, library))
    assert len(generated) == 247 + 43  # of the 256 rows of the first block, then of 44
    alone = [reference_episode_state(scen, 1, e, library) for e in ids]
    assert states == alone
    assert list(map(repr, states)) == list(map(repr, alone))


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=20, deadline=None)
@given(num_subtasks=st.integers(1, 9), num_ranks=st.sampled_from([1, 2, 30, 200]),
       fill=st.sampled_from([0.0, 0.5, 1.0]), capacity=st.sampled_from([0.05, 1.0]),
       jitter=st.sampled_from([0.0, 3.0]), mode=st.sampled_from(["fixed", "orbit"]),
       first=st.sampled_from([0, 250, 2**32 - 100]),
       size=st.sampled_from([1, 9, BLOCK_STATES + 2]), seed=st.integers(0, 2**32 - 1))
@example(num_subtasks=9, num_ranks=200, fill=1.0, capacity=1.0, jitter=0.0, mode="orbit",
         first=2**32 - 100, size=BLOCK_STATES + 2, seed=SEED)
@example(num_subtasks=1, num_ranks=1, fill=0.0, capacity=0.05, jitter=3.0, mode="fixed",
         first=250, size=BLOCK_STATES + 2, seed=SEED)
def test_drawn_arrays_equal_the_reference_draw(num_subtasks, num_ranks, fill, capacity,
                                               jitter, mode, first, size, seed):
    """The array draw's links, hits and popularity features, and the states it
    builds on demand, against conftest's numpy-seeded lone draw, bit for bit."""
    scen = replace(default_config().scenario, num_subtasks=num_subtasks,
                   num_ranks=num_ranks, placement_fill_max=fill, capacity_fraction=capacity,
                   snr_jitter_db=jitter, coverage_mode=mode)
    library = make_library(scen, seed)
    ids = range(first, first + size)
    blocks = list(episode_blocks(scen, seed, ids, library))
    alone = [reference_episode_state(scen, seed, e, library) for e in ids]
    links = [(s.t_c, s.link.rate_fh, s.link.rate_bh, s.link.prop_vs, s.link.prop_sg,
              s.cpu_rate) for s in alone]
    popularity = [[request_probability(sub.out_rank, s.cache.delta, s.cache.num_ranks)
                   if sub.out_rank else 0.0 for sub in s.task] for s in alone]
    # the arrays first: none of these reads a state
    assert np.array_equal(_bits(np.concatenate([b.links for b in blocks])), _bits(links))
    assert [tuple(h) for b in blocks for h in b.hits.tolist()] == list(map(reference_hits,
                                                                           alone))
    assert np.array_equal(_bits(np.concatenate([_popularity(b) for b in blocks])),
                          _bits(popularity))
    scaler = FeatureScaler.from_scenario(scen)
    assert np.array_equal(_bits(encode_states(blocks, scaler)),
                          _bits([reference_encode_state(s, scaler) for s in alone]))
    states = states_of(blocks)
    assert states == alone
    assert list(map(repr, states)) == list(map(repr, alone))
