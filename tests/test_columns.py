"""The draw's column path against the object path, bit for bit.

episode_states builds each block's Tables from the columns decode_tasks
decoded; Tables(states) gathers the same columns from the SubTask,
LinkState and EpisodeState objects. Hits are gathered from each state's
own cache and features are filled from the columns. Every float must
match the object path exactly, compared through .view(np.int64), and the
independent references in conftest.
"""

from dataclasses import replace

import numpy as np
import pytest

from satedge import scenario
from satedge.config import default_config
from satedge.evaluator import BLOCK_STATES, Tables, carry_cache
from satedge.neural import FeatureScaler, encode_state, encode_states
from satedge.scenario import episode_state, episode_states, make_library, prices_from

from conftest import empty_cache, hits_of, reference_encode_state, reference_hits

SCENARIOS = {
    "fixed": {},
    "fixed-0.16s": {"coverage_s": 0.16},
    "orbit": {"coverage_mode": "orbit"},
    "fixed-V9": {"num_subtasks": 9},
    "orbit-V9-R1": {"coverage_mode": "orbit", "num_subtasks": 9, "num_ranks": 1},
}
SEED = 11


def _same(a: np.ndarray, b: np.ndarray) -> None:
    """Equal shapes, dtypes and bits; float arrays compare as int64 words."""
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    assert np.array_equal(a, b)


def _assert_block_matches_objects(states, scen) -> None:
    """Each run of states, read from the rows its states hold, against Tables
    built from the objects and against per-state encoding of fresh twins."""
    prices, scaler = prices_from(scen), FeatureScaler.from_scenario(scen)
    for start in range(0, len(states), BLOCK_STATES):
        run = states[start:start + BLOCK_STATES]
        table, first = run[0].tables
        assert [s.tables for s in run] == [(table, first + i) for i in range(len(run))]
        rows = slice(first, first + len(run))
        objects = Tables(run)
        _same(table.seconds[rows], objects.seconds)
        _same(table.pattern[rows], objects.pattern)
        _same(table.costs(prices)[rows], objects.costs(prices))
        hits = table.hits(rows, run)
        _same(hits, objects.hits(slice(0, len(run)), run))
        assert [tuple(h) for h in hits.tolist()] == [reference_hits(s) for s in run]
        features = encode_states(run, scaler)
        _same(features, np.stack([encode_state(replace(s), scaler) for s in run]))
        _same(features, np.stack([reference_encode_state(s, scaler) for s in run]))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_drawn_blocks_match_the_object_path(name):
    scen = replace(default_config().scenario, **SCENARIOS[name])
    library = make_library(scen, SEED)
    states = list(episode_states(scen, SEED, range(BLOCK_STATES + 5), library))
    _assert_block_matches_objects(states, scen)
    # a lone draw has no block: its Tables is gathered from its objects
    for e in (0, BLOCK_STATES - 1, BLOCK_STATES + 4):
        alone = episode_state(scen, SEED, e, library)
        table, row = states[e].tables
        lone, lone_row = alone.tables
        assert (lone_row, len(lone.pattern)) == (0, 1)
        _same(lone.seconds, table.seconds[row:row + 1])
        _same(lone.pattern, table.pattern[row:row + 1])
        _same(lone.costs(prices_from(scen)), table.costs(prices_from(scen))[row:row + 1])
        assert hits_of(alone) == hits_of(states[e])
        _same(encode_state(alone, FeatureScaler.from_scenario(scen)),
              encode_states([states[e]], FeatureScaler.from_scenario(scen))[0])


@pytest.mark.parametrize("name", ["fixed", "orbit"])
def test_carried_states_read_hits_from_their_own_cache(name):
    scen = replace(default_config().scenario, **SCENARIOS[name])
    drawn = list(episode_states(scen, SEED, range(40), make_library(scen, SEED)))
    assert any(any(hits_of(s)) for s in drawn)  # the empty caches below turn hits into misses
    carried = [carry_cache(s, empty_cache(s.cache.sizes, s.cache.capacity_bytes,
                                          s.cache.delta)) for s in drawn]
    carried[::3] = drawn[::3]  # carried and drawn states interleaved in one run
    # popularity follows each state's own cache too, even a differently skewed one
    carried[2::3] = [carry_cache(s, replace(s.cache, delta=2.5)) for s in drawn[2::3]]
    _assert_block_matches_objects(carried, scen)
    assert carried[1].tables == drawn[1].tables


@pytest.mark.parametrize("name", ["fixed", "orbit-V9-R1"])
@pytest.mark.parametrize("given_up", [[0], [7], [0, 39]], ids=["first", "middle", "ends"])
def test_a_block_with_rows_left_to_generate_task_matches(monkeypatch, name, given_up):
    """A row decode_tasks gives up on has no decoded columns: here they are
    spoiled, so a Tables built from them would differ or raise."""
    plain = scenario.decode_tasks

    def decode(raw, cfg, library):
        chains, columns = plain(raw, cfg, library)
        for row in given_up:
            chains[row] = None
            for column in columns:
                column[row] = -1 if column.dtype.kind == "i" else np.nan
        return chains, columns

    monkeypatch.setattr(scenario, "decode_tasks", decode)
    scen = replace(default_config().scenario, **SCENARIOS[name])
    library = make_library(scen, SEED)
    states = list(episode_states(scen, SEED, range(40), library))
    assert states == [episode_state(scen, SEED, e, library) for e in range(40)]
    _assert_block_matches_objects(states, scen)
