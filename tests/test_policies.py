from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from satedge.config import default_config
from satedge.evaluator import (PAIR_OFFLOAD, ActionMatrix, PriceVector, Tables,
                               completion_time, reward, score, subtask_cost)
from satedge.oracle import solve_optimal
from satedge.policies import (BASELINE_PAIRS, baseline_actions, baseline_cache, baseline_name,
                              project_feasible)
from satedge.scenario import prices_from

from conftest import (compute, costs_of, download, feasible_of, make_cache, make_state,
                      hits_of, picks_of, reference_baseline_cache, reference_hits,
                      reference_reward_and_time, retained_of, seconds_of, states_of,
                      stream_blocks, upload)


def lone_baseline(offload_kind, cache_kind, state, prices) -> ActionMatrix:
    """baseline_actions on the state's own block of one, as an action."""
    picks = baseline_actions(offload_kind, cache_kind, [Tables([state])], prices)
    return ActionMatrix.from_picks(picks[0].tolist())


def test_baseline_names():
    assert baseline_name("to", "mrc") == "to-mrc"
    assert [baseline_name(a, b) for a, b in BASELINE_PAIRS] == [
        "to-mrc", "le-mrc", "to-mpc", "le-mpc", "go-mrc", "go-mpc"]


def test_le_and_to_proposals(prices):
    state = make_state([compute(rank=r + 1) for r in range(4)], t_c=300.0)
    # every pair of these sub-tasks is feasible, so projection keeps the proposals
    for ch_kind in ("mrc", "mpc"):
        assert lone_baseline("le", ch_kind, state, prices).offload == (0, 0, 0, 0)
        assert lone_baseline("to", ch_kind, state, prices).offload == (1, 1, 1, 1)


def test_le_upload_projected_to_offload(prices):
    state = make_state([upload()])
    action = lone_baseline("le", "mrc", state, prices)
    assert action.offload == (1,)
    completion_time(state, action)


def test_projection_examples():
    state = make_state([upload(), download()], t_c=300.0)
    projected = project_feasible(((0, 0), (1, 1)), state)
    assert projected.pair(0) == (1, 0)  # Hamming-1, lexicographic among ties
    assert projected.pair(1) == (0, 1)  # only the offload bit must flip


def test_projection_keeps_feasible_proposals(prices):
    cfg = default_config()
    for state in states_of(stream_blocks(cfg.scenario, 31, 30)):
        action, _ = solve_optimal(state, prices)
        pairs = tuple(action.pair(v) for v in range(len(state.task)))
        assert project_feasible(pairs, state) == action


def test_go_matches_oracle_offload_bits(prices):
    # the reward decomposes per sub-task, so greedy minimization recovers
    # the oracle's offload choices exactly
    cfg = default_config()
    blocks = stream_blocks(cfg.scenario, 17, 60)
    optima = [solve_optimal(state, prices)[0].offload for state in states_of(blocks)]
    for ch_kind in ("mrc", "mpc"):
        go = PAIR_OFFLOAD[baseline_actions("go", ch_kind, blocks, prices)]
        assert list(map(tuple, go.tolist())) == optima


def test_go_never_worse_per_subtask(prices):
    # GO minimizes each sub-task's immediate contribution, so its cost can
    # never exceed what the projected LE or TO proposal pays there
    cfg = default_config()
    blocks = stream_blocks(cfg.scenario, 13, 40)
    go = PAIR_OFFLOAD[baseline_actions("go", "mrc", blocks, prices)].tolist()
    for state, go_bits in zip(states_of(blocks), go, strict=True):
        for v, (feas, costs) in enumerate(zip(feasible_of(state), costs_of(state, prices))):
            cost = dict(zip(feas, costs))  # the state's Tables row, at its own hits
            go_cost = min(cost[f] for f in feas if f[0] == go_bits[v])
            for proposal in ((0, 0), (1, 1)):  # LE-ish and TO-ish pairs
                rival = min(feas, key=lambda f: (
                    (f[0] != proposal[0]) + (f[1] != proposal[1]), f))
                assert go_cost <= cost[rival] + 1e-12


def test_cache_bits_zero_without_outputs(prices):
    state = make_state([upload(), upload()])
    assert retained_of("mrc", state) == (0, 0)


def test_forced_caching_pinned(prices):
    # return leg 0.83 s > t_c, so the download's result must be cached; in
    # `tiny` it outgrows the cache, retention drops it, and projection pins it
    state = make_state([download(160e3)], t_c=0.5)
    tiny = make_state([download(160e3)], t_c=0.5, cache=make_cache(capacity=100e3))
    for kind in ("mrc", "mpc"):
        assert retained_of(kind, tiny) == (0,)
        for s in (state, tiny):
            for of_kind in ("le", "to", "go"):
                action = lone_baseline(of_kind, kind, s, prices)
                assert action.cache == (1,)
                completion_time(s, action)


def test_mpc_retention_ignores_unpopular_outputs(prices):
    # cache full of ranks 1 and 2; outputs ranked 29 and 30 never survive
    sizes = tuple(1.0 for _ in range(30))
    cache = make_cache(placed=(1, 2), capacity=2.0, sizes=sizes)
    task = [download(d_out=1.0, rank=29), download(d_out=1.0, rank=30)]
    state = make_state(task, cache=cache)
    assert retained_of("mpc", state) == (0, 0)


def test_mrc_retention_keeps_recent_outputs(prices):
    sizes = tuple(1.0 for _ in range(30))
    cache = make_cache(placed=(1, 2), capacity=2.0, sizes=sizes)
    task = [download(d_out=1.0, rank=29), download(d_out=1.0, rank=30)]
    state = make_state(task, cache=cache)
    # both outputs stream through a two-slot cache; both fit at the end
    assert retained_of("mrc", state) == (1, 1)


def test_all_baselines_feasible_everywhere(prices):
    cfg = default_config()
    blocks = stream_blocks(cfg.scenario, 23, 120)
    for of_kind, ch_kind in BASELINE_PAIRS:
        # score raises InfeasibleActionError on the first infeasible pair
        score(blocks, baseline_actions(of_kind, ch_kind, blocks, prices), prices)


def test_unknown_kinds_rejected(prices):
    state = make_state([upload()])
    for bad in ("lru", "", "docs"):
        try:
            lone_baseline(bad, "mrc", state, prices)
        except ValueError:
            pass
        else:
            raise AssertionError("unknown offload kind accepted")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_subtasks=st.sampled_from([1, 6, 9]),
       coverage=st.sampled_from([("fixed", 300.0), ("fixed", 0.16), ("orbit", 300.0)]))
def test_scoring_and_retention_match_the_per_call_references(seed, num_subtasks,
                                                              coverage):
    # every scheme of a compare episode, scored in compare's order, so all
    # but the first read of each cost table and retention come from the memo;
    # a 0.16 s window forces the cache bit of about half the outputs
    cfg = default_config().scenario
    cfg.num_subtasks = num_subtasks
    cfg.coverage_mode, cfg.coverage_s = coverage
    time_only = PriceVector(0.0, 0.0, 0.0, 1.0)
    for state in states_of(stream_blocks(cfg, seed, 4)):
        block = Tables([state])
        for prices in (prices_from(cfg), time_only):
            opt, value = solve_optimal(state, prices)
            assert value == reference_reward_and_time(state, opt, prices)[0]
            actions = [opt] + [lone_baseline(of, ch, state, prices)
                               for of, ch in BASELINE_PAIRS]
            assert [picks_of(action) for action in actions[1:]] == [
                baseline_actions(of, ch, [block], prices)[0].tolist()
                for of, ch in BASELINE_PAIRS]
            for action in actions:
                expected = reference_reward_and_time(state, action, prices)
                rewards, times = score([block], np.array([picks_of(action)]), prices)
                assert (rewards[0], times[0]) == expected
                assert reward(state, action, prices) == expected[0]
                assert completion_time(state, action) == expected[1]
        for kind in ("mrc", "mpc"):
            assert tuple(baseline_cache(kind, block)[0].tolist()) == \
                reference_baseline_cache(kind, state)


def test_replaced_cache_rederives_costs_and_retention(prices):
    # rank 4's output is a hit that stays resident in the starting cache;
    # the replaced cache holds nothing and is too small to take it
    st_ = download(160e3, rank=4)
    state = make_state([st_], cache=make_cache(placed=(4,)))
    block = Tables([state])
    rows = costs_of((block, 0), prices)
    retained = {kind: baseline_cache(kind, block)[0].tolist() for kind in ("mrc", "mpc")}
    carried = block.carrying([replace(state, cache=make_cache(capacity=100e3))], slice(0, 1))
    assert (hits_of((block, 0)), hits_of((carried, 0))) == ((True,), (False,))
    assert hits_of((carried, 0)) == reference_hits(carried.states[0])
    carried_rows = costs_of((carried, 0), prices)
    assert carried_rows == (tuple(subtask_cost(st_, of, ch, False, t, prices)
                                  for (of, ch), t in zip(feasible_of((carried, 0))[0],
                                                         seconds_of((carried, 0))[0])),)
    assert carried_rows != rows
    for kind in ("mrc", "mpc"):
        assert (retained[kind], baseline_cache(kind, carried)[0].tolist()) == ([1], [0])
        assert tuple(baseline_cache(kind, carried)[0].tolist()) == \
            reference_baseline_cache(kind, carried.states[0])
    assert costs_of((block, 0), prices) == rows
