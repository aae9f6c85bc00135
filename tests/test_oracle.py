from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satedge.config import default_config, load_config
from satedge.evaluator import (FEASIBLE, ActionMatrix, PriceVector, completion_time,
                               feasible_actions, reward, score)
from satedge.neural import FeatureScaler
from satedge.oracle import (block_argmin, build_dataset, label_states, read_dataset,
                            solve_optimal, write_dataset)
from satedge.policies import BASELINE_PAIRS, baseline_actions
from satedge.scenario import prices_from

from conftest import (compute, make_state, reference_feasible_actions, reference_hits,
                      reference_subtask_cost, reference_subtask_time, solve_full_grid,
                      states_of, stream_blocks, upload)


def outer_argmin(tables):
    """Reference for block_argmin: the full joint sum, first argmin."""
    acc = np.asarray(tables[0], dtype=np.float64)
    for t in tables[1:]:
        acc = np.add.outer(acc, np.asarray(t, dtype=np.float64))
    flat = acc.reshape(-1)
    best = int(np.argmin(flat))
    picks = tuple(int(i) for i in np.unravel_index(best, acc.shape))
    return picks, float(flat[best])


def solve_by_enumeration(state, prices):
    """Reference for solve_optimal: enumerate the pre-classified joint space.

    Builds its own tables, independent of the state's derived fields.
    """
    feas = [reference_feasible_actions(sub, state) for sub in state.task]
    tables = [[reference_subtask_cost(sub, of, ch, hit,
                                      reference_subtask_time(sub, of, hit, state), prices)
               for of, ch in f]
              for sub, f, hit in zip(state.task, feas, reference_hits(state))]
    picks, value = outer_argmin(tables)
    pairs = [f[i] for f, i in zip(feas, picks)]
    return ActionMatrix(offload=tuple(p[0] for p in pairs),
                        cache=tuple(p[1] for p in pairs)), value


def small_cfg(num_subtasks, **overrides):
    cfg = default_config()
    return replace(cfg, scenario=replace(cfg.scenario, num_subtasks=num_subtasks,
                                         **overrides))


def test_upload_tiebreak_prefers_not_caching(prices):
    state = make_state([upload(400e3)])
    action, value = solve_optimal(state, prices)
    # both feasible pairs cost the same (d_out = 0); lexicographic order wins
    assert action == ActionMatrix(offload=(1,), cache=(0,))
    other = reward(state, ActionMatrix(offload=(1,), cache=(1,)), prices)
    assert value == other


def test_search_space_of_six_compute_subtasks():
    state = make_state([compute(rank=r + 1) for r in range(6)], t_c=300.0)
    sizes = [len(feasible_actions(sub, state)) for sub in state.task]
    assert int(np.prod(sizes)) == 4 ** 6 == 4096


@pytest.mark.parametrize("coverage_mode", ["fixed", "orbit"])
def test_matches_enumeration_reference_bit_for_bit(coverage_mode):
    for v in range(1, 9):
        scen = small_cfg(v, coverage_mode=coverage_mode).scenario
        prices = prices_from(scen)
        for state in states_of(stream_blocks(scen, 100 + v, 40 if v < 8 else 15)):
            action, value = solve_optimal(state, prices)
            ref_action, ref_value = solve_by_enumeration(state, prices)
            assert action == ref_action
            assert repr(value) == repr(ref_value)


# costs that tie exactly, or that vanish into a large total under rounding
TIE_COSTS = (0.0, -0.0, 0.5, 1.0, 1.5, 0.1, 0.2, 0.3, 2.0 ** 53, 2.0 ** 53 + 2.0, 1e16)
cost_tables = st.lists(
    st.lists(st.one_of(st.sampled_from(TIE_COSTS),
                       st.floats(min_value=-1e6, max_value=1e6)),
             min_size=1, max_size=4),
    min_size=1, max_size=5)


def argmin_of_one_row(tables):
    """block_argmin on ragged tables as a block of one, padded with +inf."""
    costs = np.full((1, len(tables), max(map(len, tables))), np.inf)
    for v, table in enumerate(tables):
        costs[0, v, :len(table)] = table
    picks, totals = block_argmin(costs)
    return tuple(picks[0].tolist()), totals.item()


@settings(max_examples=500, deadline=None)
@given(cost_tables)
def test_lexicographic_argmin_matches_outer_sum(tables):
    picks, value = argmin_of_one_row(tables)
    ref_picks, ref_value = outer_argmin(tables)
    assert picks == ref_picks
    assert repr(value) == repr(ref_value)


def test_lexicographic_argmin_keeps_rounding_collapsed_tie():
    # 0.5 + 2**53 rounds to 2**53, so index 0 ties the per-table minimum and wins
    tables = [[0.5, 0.0], [2.0 ** 53]]
    assert outer_argmin(tables) == ((0, 0), 2.0 ** 53)
    assert argmin_of_one_row(tables) == ((0, 0), 2.0 ** 53)


def test_long_chains_solve_and_replay_to_their_reward():
    scen = small_cfg(12).scenario
    prices = prices_from(scen)
    for state in states_of(stream_blocks(scen, 12, 30)):
        action, value = solve_optimal(state, prices)
        assert repr(reward(state, action, prices)) == repr(value)


def test_matches_full_grid_on_small_tasks(prices):
    for v in (2, 3, 4):
        cfg = small_cfg(v)
        for state in states_of(stream_blocks(cfg.scenario, 21, 25)):
            fast_action, fast_value = solve_optimal(state, prices)
            slow_action, slow_value = solve_full_grid(state, prices)
            assert fast_action == slow_action
            assert abs(fast_value - slow_value) <= 1e-9


def test_full_grid_discards_infeasible(prices):
    state = make_state([upload(300e3)])
    action, _ = solve_full_grid(state, prices)
    completion_time(state, action)
    assert action.offload == (1,)


def test_oracle_dominates_baselines(prices):
    cfg = default_config()
    blocks = stream_blocks(cfg.scenario, 77, 100)
    optima = [solve_optimal(state, prices)[1] for state in states_of(blocks)]
    for of_kind, ch_kind in BASELINE_PAIRS:
        rewards, _ = score(blocks, baseline_actions(of_kind, ch_kind, blocks, prices), prices)
        assert all(opt <= value for opt, value in zip(optima, rewards, strict=True))


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _shortcut_config(name):
    scen = default_config().scenario
    if name.startswith("parity_"):
        return load_config(SCRIPTS / f"{name}.txt").scenario
    if name == "coverage_0.16":
        return replace(scen, coverage_s=0.16)
    if name == "price_cache_0":  # caching is free, so every free cache bit ties
        return replace(scen, price_cache=0.0)
    return scen


@pytest.mark.parametrize("name", ["defaults", "parity_tiny", "parity_evict", "parity_orbit",
                                  "coverage_0.16", "price_cache_0"])
def test_oracle_caches_exactly_what_its_pattern_forces(name):
    # a cache bit changes no time and costs price_cache * d_out >= 0, and
    # ties prefer not caching, so the labels cache an output only where
    # FEASIBLE holds no pair that does not (patterns 2 and 4), whatever the
    # cache holds: the persistent rollout carries oracle's cache on that
    assert [p for p, feas in enumerate(FEASIBLE) if {ch for _, ch in feas} == {1}] == [2, 4]
    scen = _shortcut_config(name)
    blocks = stream_blocks(scen, 5, 300)
    demos = label_states(blocks, prices_from(scen), FeatureScaler.from_scenario(scen))
    forced = np.isin(np.concatenate([block.pattern for block in blocks]), (2, 4))
    assert np.array_equal(demos.labels[:, scen.num_subtasks:], forced)
    assert forced.any() == (name in ("parity_orbit", "coverage_0.16"))


def test_demonstrations_replay_to_their_reward(prices):
    cfg = default_config()
    demos = build_dataset(cfg.scenario, 100, 5)
    states = states_of(stream_blocks(cfg.scenario, 5, 100))
    for demo, state in zip(demos, states):
        action = ActionMatrix.from_bits(demo.labels)
        completion_time(state, action)
        assert abs(reward(state, action, prices) - demo.opt_reward) <= 1e-9


def test_dataset_round_trip_bytes(tmp_path):
    cfg = default_config()
    demos = build_dataset(cfg.scenario, 30, 9)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dataset(p1, demos, cfg.scenario)
    header, reread = read_dataset(p1)
    write_dataset(p2, reread, cfg.scenario)
    assert p1.read_bytes() == p2.read_bytes()
    assert header["subtasks"] == "6" and header["features"] == "54"


def test_dataset_generation_is_reproducible(tmp_path):
    cfg = default_config()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dataset(a, build_dataset(cfg.scenario, 12, 3), cfg.scenario)
    write_dataset(b, build_dataset(cfg.scenario, 12, 3), cfg.scenario)
    assert a.read_bytes() == b.read_bytes()


def test_read_dataset_rejects_corruption(tmp_path):
    cfg = default_config()
    path = tmp_path / "d.txt"
    write_dataset(path, build_dataset(cfg.scenario, 3, 1), cfg.scenario)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad.txt"
    bad.write_text("#something-else v1\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError):
        read_dataset(bad)

    bad.write_text("\n".join(lines[:2]) + ",0.5\n")
    with pytest.raises(ValueError):
        read_dataset(bad)

    mangled = lines[1].split(",")
    mangled[-2] = "2" * len(mangled[-2])
    bad.write_text(lines[0] + "\n" + ",".join(mangled) + "\n")
    with pytest.raises(ValueError):
        read_dataset(bad)


def test_unpriced_time_objective_reduces_to_fastest_schedule():
    # with only the time term active the optimum is the pure min-time action
    state = make_state([compute(d_in=200e3, d_out=150e3, rho=8e3, rank=3)])
    time_only = PriceVector(0.0, 0.0, 0.0, 1.0)
    action, value = solve_optimal(state, time_only)
    times = {}
    for off, ch in feasible_actions(state.task[0], state):
        a = ActionMatrix(offload=(off,), cache=(ch,))
        times[(off, ch)] = reward(state, a, time_only)
    assert value == min(times.values())
    assert times[action.pair(0)] == value
