"""Block labelling against the scalar path it replaced.

label_states solves every row of each Tables block it is given with
block_argmin and scales its feature rows in one call, whether the block
is one the draw built or a lone state's block of one. Both must give
the labels, the opt_reward bits and the feature bits of the scalar path
in conftest, and the table rows that baselines and scoring read must
equal the scalar formulas.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satedge
from satedge.config import default_config
from satedge.evaluator import BLOCK_STATES, PriceVector, Tables
from satedge.neural import FeatureScaler
from satedge.oracle import block_argmin, build_dataset, label_states
from satedge.scenario import prices_from

from conftest import (costs_of, empty_cache, feasible_of, hits_of, reference_cost_rows,
                      reference_hits, reference_label_states,
                      reference_lexicographic_argmin, reference_subtask_time, seconds_of,
                      states_of, stream_blocks)
from test_oracle import TIE_COSTS

COVERAGES = {
    "fixed-300s": {"coverage_mode": "fixed", "coverage_s": 300.0},
    "fixed-0.16s": {"coverage_mode": "fixed", "coverage_s": 0.16},
    "orbit": {"coverage_mode": "orbit"},
}
PRICES = ("default", "time-only", "zero")


def _bits(value: float) -> str:
    return float(value).hex()


def _assert_same_demos(demos, reference):
    assert len(demos) == len(reference)
    for demo, ref in zip(demos, reference):
        assert demo.episode_id == ref.episode_id
        assert demo.labels == ref.labels
        assert _bits(demo.opt_reward) == _bits(ref.opt_reward)
        assert demo.features.dtype == np.float64
        assert demo.features.tobytes() == ref.features.tobytes()


def _assert_views_match_formulas(block, row, prices):
    state = block.states[row]
    feasible, rows = reference_cost_rows(state, prices)
    hits = reference_hits(state)
    assert feasible_of((block, row)) == tuple(feasible)
    assert costs_of((block, row), prices) == tuple(map(tuple, rows))
    assert seconds_of((block, row)) == tuple(
        tuple(reference_subtask_time(sub, of, hit, state) for of, _ in feas)
        for sub, feas, hit in zip(state.task, feasible, hits))


@pytest.mark.parametrize("num_subtasks", [1, 6, 9])
@pytest.mark.parametrize("coverage", sorted(COVERAGES))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), price_kind=st.sampled_from(PRICES),
       n=st.sampled_from([1, 7, BLOCK_STATES - 1, BLOCK_STATES, BLOCK_STATES + 3,
                          2 * BLOCK_STATES]))
def test_block_labelling_matches_scalar_path(num_subtasks, coverage, seed, price_kind, n):
    cfg = default_config()
    scen = replace(cfg.scenario, num_subtasks=num_subtasks, **COVERAGES[coverage])
    prices = {"default": prices_from(scen), "time-only": PriceVector(0.0, 0.0, 0.0, 1.0),
              "zero": PriceVector(0.0, 0.0, 0.0, 0.0)}[price_kind]
    scaler = FeatureScaler.from_scenario(scen)
    blocks = stream_blocks(scen, seed, n)
    states = states_of(blocks)
    reference = reference_label_states(states, prices, scaler)

    _assert_same_demos(label_states(blocks, prices, scaler), reference)
    # the per-state path: a fresh twin of each state builds its own block of one
    for state, ref in zip(states[:9], reference):
        _assert_same_demos(label_states([Tables([replace(state)])], prices, scaler),
                           [replace(ref, episode_id=0)])
    for row in range(min(9, n)):
        _assert_views_match_formulas(blocks[0], row, prices)


def test_short_coverage_restricts_feasible_sets():
    # the fixed 0.16 s window is about the median return leg, so the
    # differential test above meets restricted feasible sets
    scen = replace(default_config().scenario, **COVERAGES["fixed-0.16s"])
    block, = stream_blocks(scen, 5, 50)
    allowed = {"upload": 2, "download": 2, "compute": 4}
    restricted = sum(len(feas) < allowed[sub.category.value]
                     for row, state in enumerate(block.states)
                     for sub, feas in zip(state.task, feasible_of((block, row))))
    assert restricted > 50


def test_carried_state_reads_its_draws_row():
    cfg = default_config()
    prices = prices_from(cfg.scenario)
    scaler = FeatureScaler.from_scenario(cfg.scenario)
    block, = stream_blocks(cfg.scenario, 3, 20)
    for row, state in enumerate(block.states):
        # an empty cache turns every hit of the drawn placement into a miss
        cache = empty_cache(state.cache.sizes, state.cache.capacity_bytes,
                            state.cache.delta)
        carried = block.carrying([replace(state, cache=cache)], slice(row, row + 1))
        assert np.shares_memory(carried.seconds, block.seconds)
        assert np.shares_memory(carried.costs(prices), block.costs(prices))
        assert not any(hits_of((carried, 0)))
        _assert_views_match_formulas(carried, 0, prices)
        _assert_same_demos(label_states([carried], prices, scaler),
                           reference_label_states(carried.states, prices, scaler))


def test_block_rejects_unequal_chain_lengths():
    scen = default_config().scenario
    short, = stream_blocks(replace(scen, num_subtasks=2), 1, 1)[0].states
    long, = stream_blocks(scen, 1, 1)[0].states
    for mixed in ([short, long], [long, short]):
        with pytest.raises(ValueError):
            Tables(mixed)
    prices, scaler = prices_from(scen), FeatureScaler.from_scenario(scen)
    assert [d.labels for d in label_states([Tables([long, long])], prices, scaler)] == \
        [d.labels for d in reference_label_states([long, long], prices, scaler)]


def test_an_empty_block_is_refused_by_name():
    """No block holds zero states: each way of building or labelling one
    raises a ValueError that names the cause, not numpy's or tuple's."""
    scen = default_config().scenario
    prices, scaler = prices_from(scen), FeatureScaler.from_scenario(scen)
    drawn, = stream_blocks(scen, 1, 3)
    none = slice(0, 0)
    with pytest.raises(ValueError, match="at least one state"):
        Tables([])
    with pytest.raises(ValueError, match="at least one state"):
        Tables.drawn(tuple(getattr(drawn, name)[none] for name in
                           ("code", "d_in", "d_out", "rho", "rank")),
                     drawn.links[none],
                     tuple(getattr(drawn, name)[none] for name in Tables.CACHES), tuple)
    with pytest.raises(ValueError, match="at least one block"):
        label_states([], prices, scaler)
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one episode"):
            build_dataset(scen, n, 1)


cost_table = st.lists(st.one_of(st.sampled_from(TIE_COSTS),
                                st.floats(min_value=-1e6, max_value=1e6)),
                      min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda v: st.lists(st.lists(cost_table, min_size=v, max_size=v),
                       min_size=1, max_size=6)))
def test_block_argmin_matches_lexicographic_argmin_per_row(rows):
    costs = np.full((len(rows), len(rows[0]), 4), np.inf)
    for n, tables in enumerate(rows):
        for v, table in enumerate(tables):
            costs[n, v, :len(table)] = table
    picks, totals = block_argmin(costs)
    for n, tables in enumerate(rows):
        ref_picks, ref_total = reference_lexicographic_argmin(tables)
        assert tuple(picks[n].tolist()) == ref_picks
        assert _bits(totals[n]) == _bits(ref_total)


def test_block_argmin_keeps_rounding_collapsed_tie_inside_a_block():
    inf = np.inf
    costs = np.array([
        [[2.0, 1.0], [3.0, inf]],
        # 0.5 + 2**53 rounds to 2**53, so index 0 ties the per-table minimum and wins
        [[0.5, 0.0], [2.0 ** 53, inf]],
        [[0.0, 0.5], [2.0 ** 53, inf]],
    ])
    picks, totals = block_argmin(costs)
    assert picks.tolist() == [[1, 0], [0, 0], [0, 0]]
    assert totals.tolist() == [4.0, 2.0 ** 53, 2.0 ** 53]
    assert reference_lexicographic_argmin([[0.5, 0.0], [2.0 ** 53]]) == ((0, 0), 2.0 ** 53)


# the one-state forms the benchmark tracer wraps, and the per-row types
ONE_STATE = {
    "evaluator": ("ActionMatrix", "EpisodeState", "reward", "completion_time",
                  "feasible_actions", "subtask_cost"),
    "oracle": ("Demonstration", "solve_optimal"),
    "neural": ("encode_state", "decode_actions", "infer"),
    "policies": ("project_feasible",),
    "scenario": ("episode_state",),
}


def test_package_exports_the_block_api_only():
    exported = {name: getattr(satedge, name) for name in satedge.__all__}  # each resolves
    assert {"episode_blocks", "label_states", "build_dataset", "baseline_actions", "score",
            "action_report", "Tables", "Demonstrations"} <= set(exported)
    for module, names in ONE_STATE.items():
        for name in names:
            assert name not in exported
            assert callable(getattr(importlib.import_module(f"satedge.{module}"), name))
