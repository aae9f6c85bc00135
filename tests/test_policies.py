import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satedge import caching
from satedge.caching import CacheState
from satedge.config import default_config, load_config
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


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _retention_config(name):
    scen = default_config().scenario
    if name == "parity_orbit":
        return load_config(SCRIPTS / "parity_orbit.txt").scenario
    if name == "capacity_0.05":
        return replace(scen, capacity_fraction=0.05)
    if name == "uniform_capacity_0.05":
        return replace(scen, capacity_fraction=0.05, zipf_delta=0.0)
    return scen


@pytest.mark.parametrize("name, seed", [
    ("defaults", 2042), ("parity_orbit", 42), ("capacity_0.05", 7),
    ("uniform_capacity_0.05", 2042),
])
def test_block_retention_matches_the_per_state_replay(name, seed):
    # 300 episodes, two drawn blocks, replayed on their arrays before any
    # state is built; a cache of 5 % of the library evicts often, and
    # zipf_delta = 0 ties every mpc key, which go to the larger rank
    blocks = stream_blocks(_retention_config(name), seed, 300)
    offered = np.concatenate([block.d_out > 0.0 for block in blocks])
    for kind in ("mrc", "mpc"):
        bits = np.concatenate([baseline_cache(kind, block) for block in blocks])
        assert bits.dtype == np.intp
        assert [tuple(row) for row in bits.tolist()] == [
            reference_baseline_cache(kind, state) for state in states_of(blocks)]
        if name.endswith("0.05"):
            assert (bits[offered] == 0).any()  # the small cache evicts


def test_block_retention_equals_the_per_state_offers(monkeypatch):
    # compare's default stream, 10 episodes at seed 2042, replayed per state
    # through the rebindable evict_mrc and evict_mpc: 12 offers and 0.5
    # evictions per episode over both kinds; the block replay calls neither
    # and keeps the same bits, row for row
    offers, evictions = [], []

    def counted(evict):
        def offer(cache, rank, nbytes):
            out = evict(cache, rank, nbytes)
            offers.append(rank)
            if out is not cache:  # an oversized offer comes back unchanged
                before = sum(cache.placement) + (1 - cache.placement[rank - 1])
                evictions.append(before - sum(out.placement))
            return out
        return offer

    blocks = stream_blocks(default_config().scenario, 2042, 10)
    block_bits = {kind: baseline_cache(kind, blocks[0]).tolist() for kind in ("mrc", "mpc")}
    for name in ("evict_mrc", "evict_mpc"):
        monkeypatch.setattr(caching, name, counted(getattr(caching, name)))
    for kind in ("mrc", "mpc"):
        assert [tuple(row) for row in block_bits[kind]] == [
            reference_baseline_cache(kind, state) for state in states_of(blocks)]
    assert (len(offers) / 10, sum(evictions) / 10) == (12.0, 0.5)


def _lone_retention(kind, state):
    """baseline_cache of the state's block of one, checked against the reference."""
    bits = retained_of(kind, state)
    assert bits == reference_baseline_cache(kind, state)
    return bits


def test_an_oversized_offer_leaves_its_row_and_clock_unchanged():
    # rank 1 holds stamp 3 while the clock reads 2. Had the rejected 5-byte
    # offer advanced the clock, ranks 2 and 3 would be stamped 3 and 4, and
    # mrc would break rank 1's tie with rank 2 toward rank 1: (0, 1, 1)
    cache = CacheState(sizes=(1.0,) * 5, placement=(1, 0, 0, 0, 0), capacity_bytes=2.0,
                       delta=1.0, recency=(3, 0, 0, 0, 0), clock=2)
    state = make_state([download(5.0, rank=4), download(1.0, rank=2),
                        download(1.0, rank=3)], cache=cache)
    assert _lone_retention("mrc", state) == (0, 0, 1)
    assert _lone_retention("mpc", state) == (0, 1, 0)


def test_an_offer_stores_its_own_size():
    # rank 2 is stored at 1.0 bytes and offered at 1.5: with rank 3 the cache
    # holds 2.5 > 2.0 bytes, so one goes; at the stored size both would fit
    cache = make_cache(num_ranks=5, capacity=2.0, sizes=(1.0,) * 5)
    state = make_state([download(1.5, rank=2), download(1.0, rank=3)], cache=cache)
    assert _lone_retention("mrc", state) == (0, 1)
    assert _lone_retention("mpc", state) == (1, 0)


def test_a_zero_output_is_never_offered():
    # rank 9 lies outside the five ranks but raises nothing, and the held
    # rank 1 keeps no bit for a zero-byte output; rank 2's byte then
    # overfills the cache, and mrc drops rank 1, mpc rank 2. A NaN output
    # never reaches the replay: the block that would hold it is refused
    cache = make_cache(num_ranks=5, capacity=1.0, placed=(1,), sizes=(1.0,) * 5)
    state = make_state([download(0.0, rank=9), download(0.0, rank=1),
                        download(1.0, rank=2)], cache=cache)
    nan = replace(state, task=(download(math.nan, rank=1),) + state.task[1:])
    for kind, kept in (("mrc", (0, 0, 1)), ("mpc", (0, 0, 0))):
        assert _lone_retention(kind, state) == kept
        assert reference_baseline_cache(kind, nan) == kept
    with pytest.raises(ValueError, match="byte count must be nonnegative"):
        Tables([nan])


@pytest.mark.parametrize("rank", [0, 31])
def test_an_offered_rank_outside_the_cache_is_refused_by_name(rank):
    fine = make_state([download(1.0, rank=1)] * 2)
    bad = make_state([download(1.0, rank=1), download(1.0, rank=rank)])
    block = Tables([fine, bad])
    for kind in ("mrc", "mpc"):
        with pytest.raises(ValueError, match=f"state 1, sub-task 1: offers output rank "
                                             f"{rank} outside 1..30"):
            baseline_cache(kind, block)
        with pytest.raises(ValueError, match=f"rank {rank} outside"):
            reference_baseline_cache(kind, bad)
