import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satedge.config import default_config
from satedge.evaluator import (PAIRS, ActionMatrix, InfeasibleActionError, PriceVector,
                               Tables, completion_time, feasible_actions, label_bits,
                               label_picks, pair_index, reward, score, subtask_cost)
from satedge.oracle import solve_optimal
from satedge.scenario import prices_from
from satedge.workload import Category

from conftest import (compute, costs_of, download, feasible_of, hits_of, make_cache,
                      make_state, reference_hits, seconds_of, states_of, stream_blocks,
                      upload)

# Worked by hand from the per-category pipelines at 1.6 / 2.4 Mb/s,
# d_vs = 0.03 s, d_sg = 0.27 s:
UPLOAD_400KB = 3.6333333333333333  # 2.0 + 0.03 + 4/3 + 0.27
DOWNLOAD_HIT_160KB = 0.83  # 0.8 + 0.03
COMPUTE_LOCAL_WORK = 0.1  # 1e9 cycles at 1e10 cycles/s


def rel_err(a, b):
    return abs(a - b) / abs(b)


def seconds_alone(st_, a_of, hit, state):
    """The library's Tables.seconds of st_ alone in state, under offload bit a_of."""
    seconds = Tables([replace(state, task=(st_,))]).seconds
    return float(seconds[0, 0, int(hit), pair_index(a_of, 0)])


def test_upload_golden():
    state = make_state([upload(400e3)])
    t = seconds_alone(state.task[0], 1, False, state)
    assert rel_err(t, UPLOAD_400KB) < 1e-6
    assert t == UPLOAD_400KB  # exact under these round rates


def test_download_hit_golden():
    state = make_state([download(160e3)])
    t = seconds_alone(state.task[0], 0, True, state)
    assert rel_err(t, DOWNLOAD_HIT_160KB) < 1e-6


def test_download_miss_adds_backhaul_leg():
    state = make_state([download(160e3)])
    miss = seconds_alone(state.task[0], 0, False, state)
    # miss prepends d_out/r_bh + d_sg to the hit path
    assert rel_err(miss - DOWNLOAD_HIT_160KB,
                   160e3 * 8 / 2.4e6 + 0.27) < 1e-9


def test_compute_local_work_golden():
    st_ = compute(d_in=100e3, d_out=100e3, rho=1e4)
    state = make_state([st_])
    local = seconds_alone(st_, 0, False, state)
    hit = seconds_alone(st_, 0, True, state)
    # the hit path skips exactly the local processing term
    assert rel_err(local - hit, COMPUTE_LOCAL_WORK) < 1e-6
    ingest = 100e3 * 8 / 1.6e6 + 0.03
    back = 100e3 * 8 / 1.6e6 + 0.03
    assert rel_err(local, ingest + COMPUTE_LOCAL_WORK + back) < 1e-6


def test_compute_offloaded_uses_backhaul():
    st_ = compute(d_in=240e3, d_out=100e3, rho=1e4)
    state = make_state([st_])
    off = seconds_alone(st_, 1, False, state)
    loc = seconds_alone(st_, 0, False, state)
    d_off = 240e3 * 8 / 2.4e6  # 0.8 s
    assert rel_err(off - loc, (d_off + 0.27) - 240e3 * 1e4 / 1e10) < 1e-9


def test_feasible_sets_per_category():
    state = make_state([upload(), download(), compute()], t_c=300.0)
    assert feasible_actions(state.task[0], state) == ((1, 0), (1, 1))
    assert feasible_actions(state.task[1], state) == ((0, 0), (0, 1))
    assert feasible_actions(state.task[2], state) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_coverage_expiry_forces_caching():
    # return leg of 160KB output is 0.8 + 0.03 = 0.83 s > t_c
    state = make_state([download(160e3), compute(d_out=160e3)], t_c=0.5)
    assert feasible_actions(state.task[0], state) == ((0, 1),)
    assert feasible_actions(state.task[1], state) == ((0, 1), (1, 1))


def test_hit_flags_use_starting_placement():
    cache = make_cache(placed=(4,))
    state = make_state([download(rank=4), download(rank=5)], cache=cache)
    assert hits_of(state) == (True, False)


@pytest.mark.parametrize("coverage_mode", ["fixed", "orbit"])
def test_derived_fields_match_the_rules(coverage_mode):
    cfg = default_config()
    cfg.scenario.coverage_mode = coverage_mode
    prices = prices_from(cfg.scenario)
    for state in states_of(stream_blocks(cfg.scenario, 7, 60)):
        feas = tuple(feasible_actions(sub, state) for sub in state.task)
        hits = reference_hits(state)
        secs = tuple(tuple(seconds_alone(sub, of, hit, state) for of, _ in f)
                     for sub, f, hit in zip(state.task, feas, hits))
        assert (feasible_of(state), hits_of(state), seconds_of(state)) == (feas, hits, secs)
        assert costs_of(state, prices) == tuple(
            tuple(subtask_cost(sub, of, ch, hit, t, prices) for (of, ch), t in zip(f, ts))
            for sub, f, ts, hit in zip(state.task, feas, secs, hits))


def test_derived_fields_are_not_dataclass_fields():
    state = make_state([download(rank=4), compute(rank=5)],
                       cache=make_cache(placed=(4,)))
    twin = make_state(state.task, cache=state.cache)
    Tables([state])  # derive on one side only
    assert state == twin and hash(state) == hash(twin) and repr(state) == repr(twin)
    with pytest.raises(FrozenInstanceError):
        state.cache = twin.cache


def test_a_drawn_state_holds_no_memo():
    # slots: no module can keep a derived value on a state
    state = stream_blocks(default_config().scenario, 4, 1)[0].states[0]
    assert not hasattr(state, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(state, "tables", None)


def test_assigning_any_name_to_a_state_raises_frozen_instance_error():
    # with slots=True, CPython 3.10 to 3.13 raise TypeError for a name that
    # is not a field
    state = stream_blocks(default_config().scenario, 4, 1)[0].states[0]
    for name in ("tables", "cache"):
        with pytest.raises(FrozenInstanceError):
            setattr(state, name, None)
    assert not hasattr(state, "__dict__")


def test_replaced_cache_rederives_hits_and_times():
    st_ = download(160e3, rank=4)
    state = make_state([st_], cache=make_cache(placed=(4,)))
    assert hits_of(state) == (True,)
    hit_seconds = seconds_of(state)
    carried = replace(state, cache=make_cache(placed=(5,)))
    assert hits_of(carried) == (False,)
    assert seconds_of(carried) == ((seconds_alone(st_, 0, False, state),) * 2,)
    assert seconds_of(carried)[0][0] > hit_seconds[0][0]
    assert hits_of(state) == (True,) and seconds_of(state) == hit_seconds


def test_hits_refuse_a_block_of_caches_with_unequal_rank_counts(prices):
    # flattened and cut into equal rows, the two placements would read rank
    # 15 of the 40-rank cache where rank 5 is asked for: a hit, not a miss
    short = make_state([download(rank=15)], cache=make_cache(20, placed=(15,)))
    long = make_state([download(rank=5)], cache=make_cache(40, placed=(15,)))
    assert [reference_hits(s) for s in (short, long)] == [(True,), (False,)]
    with pytest.raises(ValueError, match="state 1: its cache holds 40 ranks"):
        Tables([short, long]).hits
    with pytest.raises(ValueError, match="state 1: its cache holds 40 ranks"):
        score([Tables([short, long])], np.zeros((2, 1), dtype=np.intp), prices)


def test_hits_follow_each_states_cache_and_are_read_only():
    block, = stream_blocks(default_config().scenario, 4, 12)
    hits = block.hits
    assert hits.tolist() == [list(reference_hits(s)) for s in block.states]
    assert block.hits is hits  # computed once
    with pytest.raises(ValueError):
        hits[0, 0] = not hits[0, 0]
    # every placement bit flipped: each output rank's hit flips, and the
    # carried states keep their rows
    carried = Tables(
        [replace(s, cache=replace(s.cache, placement=tuple(1 - b for b in s.cache.placement)))
         for s in block.states])
    fresh = carried.hits
    assert fresh.tolist() == [list(reference_hits(s)) for s in carried.states]
    assert (fresh != hits).any()
    assert Tables(block.states[1:2]).hits.tolist() == \
        [list(reference_hits(block.states[1]))]


def test_hits_refuse_an_output_rank_past_its_cache(prices):
    state = make_state([upload(), download(rank=25)], cache=make_cache(20))
    with pytest.raises(ValueError, match="state 0, sub-task 1: output rank 25 outside 0..20"):
        reward(state, ActionMatrix(offload=(1, 0), cache=(0, 0)), prices)


def test_a_cache_of_no_ranks_holds_no_hit(prices):
    state = make_state([upload()], cache=make_cache(num_ranks=0))
    assert hits_of(state) == (False,)
    assert reward(state, ActionMatrix(offload=(1,), cache=(0,)), prices) > 0.0


def test_completion_time_is_the_chain_fold_of_subtask_times():
    cfg = default_config()
    prices = prices_from(cfg.scenario)
    for state in states_of(stream_blocks(cfg.scenario, 98, 40)):
        action, _ = solve_optimal(state, prices)
        total = 0.0
        for v, (sub, hit) in enumerate(zip(state.task, reference_hits(state))):
            total += seconds_alone(sub, action.offload[v], hit, state)
        assert completion_time(state, action) == total


def test_completion_time_sums_in_chain_order():
    one = make_state([upload(250e3)])
    two = make_state([upload(250e3), upload(250e3)])
    t1 = completion_time(one, ActionMatrix(offload=(1,), cache=(0,)))
    t2 = completion_time(two, ActionMatrix(offload=(1, 1), cache=(0, 0)))
    assert t2 == 2.0 * t1


def test_reward_zero_prices():
    state = make_state([upload(), compute()])
    action = ActionMatrix(offload=(1, 0), cache=(0, 0))
    assert reward(state, action, PriceVector(0.0, 0.0, 0.0, 0.0)) == 0.0


def test_reward_time_only_prices_bitwise():
    cfg = default_config()
    unit_time = PriceVector(0.0, 0.0, 0.0, 1.0)
    prices = prices_from(cfg.scenario)
    for state in states_of(stream_blocks(cfg.scenario, 99, 40)):
        action, _ = solve_optimal(state, prices)
        assert reward(state, action, unit_time) == completion_time(state, action)


def test_hit_consumes_no_compute_or_comm_budget():
    cache = make_cache(placed=(2,))
    st_ = compute(rank=2)
    state = make_state([st_], cache=cache)
    only_usage = PriceVector(1e-10, 1e-6, 0.0, 0.0)
    for of in (0, 1):
        act = ActionMatrix(offload=(of,), cache=(0,))
        assert reward(state, act, only_usage) == 0.0
    # a miss on the same action pays for the work
    miss_state = make_state([st_], cache=make_cache())
    act = ActionMatrix(offload=(0,), cache=(0,))
    assert reward(miss_state, act, only_usage) == pytest.approx(1e-10 * st_.zeta)


def test_cache_bit_charges_output_bytes():
    state = make_state([download(200e3)])
    cache_price = PriceVector(0.0, 0.0, 1e-6, 0.0)
    kept = ActionMatrix(offload=(0,), cache=(1,))
    dropped = ActionMatrix(offload=(0,), cache=(0,))
    assert reward(state, kept, cache_price) == pytest.approx(0.2)
    assert reward(state, dropped, cache_price) == 0.0


def test_all_hits_never_slower_than_all_misses():
    cache_all = make_cache(placed=tuple(range(1, 31)))
    task = [download(rank=3), compute(rank=8)]
    hit_state = make_state(task, cache=cache_all)
    miss_state = make_state(task, cache=make_cache())
    act = ActionMatrix(offload=(0, 0), cache=(0, 0))
    assert completion_time(hit_state, act) <= completion_time(miss_state, act)


def test_validate_action_names_the_offender():
    state = make_state([upload(), download()])
    bad = ActionMatrix(offload=(0, 0), cache=(0, 0))
    with pytest.raises(InfeasibleActionError) as err:
        completion_time(state, bad)
    assert "0" in str(err.value) and "upload" in str(err.value).lower()
    with pytest.raises(InfeasibleActionError):
        reward(state, bad, PriceVector(0, 0, 0, 1.0))


def test_action_matrix_validates_bits():
    with pytest.raises(ValueError):
        ActionMatrix(offload=(1, 0), cache=(0,))
    with pytest.raises(ValueError):
        ActionMatrix(offload=(2,), cache=(0,))
    assert ActionMatrix.from_bits((1, 0, 0, 1)) == ActionMatrix(offload=(1, 0), cache=(0, 1))
    # the blocked layout: all offload bits, then all cache bits
    assert label_bits(np.array([[2, 1]])).tolist() == [[1, 0, 0, 1]]


@pytest.mark.parametrize("v", [1, 2, 3])
def test_label_picks_inverts_label_bits(v):
    picks = np.array(list(itertools.product(range(len(PAIRS)), repeat=v)), dtype=np.intp)
    bits = label_bits(picks)
    assert bits.shape == (len(PAIRS) ** v, 2 * v)
    assert bits.tolist() == [[PAIRS[p][0] for p in row] + [PAIRS[p][1] for p in row]
                             for row in picks.tolist()]
    assert np.array_equal(label_picks(bits), picks)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e3, max_value=12e3),
       st.floats(min_value=100e3, max_value=500e3))
def test_local_compute_reward_monotone_in_zeta(rho, d_in):
    prices = PriceVector(1e-10, 1e-6, 1e-6, 0.2)
    act = ActionMatrix(offload=(0,), cache=(0,))
    lo = make_state([compute(d_in=d_in, rho=rho)])
    hi = make_state([compute(d_in=d_in, rho=rho * 1.5)])
    assert reward(lo, act, prices) <= reward(hi, act, prices)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("rho", NAN), ("rho", -5.0), ("rho", INF),
    ("cpu_rate", 0.0), ("cpu_rate", NAN), ("cpu_rate", INF),
    ("t_c", NAN), ("t_c", -1.0),
])
def test_tables_reject_states_no_draw_produces(field, value):
    """A library caller's state whose cycles, CPU rate or coverage window
    lies outside its domain is refused, naming the state and sub-task."""
    scen = default_config().scenario
    state, = stream_blocks(scen, 1, 1)[0].states
    if field == "rho":
        v = next(v for v, st_ in enumerate(state.task) if st_.category is Category.COMPUTE)
        task = list(state.task)
        task[v] = replace(task[v], rho=value)
        bad = replace(state, task=tuple(task))
    else:
        v, bad = 0, replace(state, **{field: value})
    with pytest.raises(ValueError, match=f"state 1, sub-task {v}: needs"):
        Tables([state, bad])
    with pytest.raises(ValueError, match=f"state 0, sub-task {v}: needs"):
        solve_optimal(bad, prices_from(scen))
