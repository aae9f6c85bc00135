import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from satedge.caching import (CacheState, evict_mpc, evict_mrc, left_sum, request_probability,
                             zipf_pmf)
from satedge.config import default_config
from satedge.scenario import library_capacity
from satedge.workload import Category, SubTask

from conftest import (apply_caching_action, cached_bytes, empty_cache, is_hit,
                      reference_evict)

H_30 = 3.9949871309203906  # 30th harmonic number, summed by hand script


def two_slot_cache(num_ranks=30, delta=1.0):
    # unit-size items, room for exactly two
    return empty_cache(sizes=(1.0,) * num_ranks, capacity_bytes=2.0, delta=delta)


def placed_ranks(cache):
    return {r + 1 for r, bit in enumerate(cache.placement) if bit}


# --- Zipf request probabilities ------------------------------------------


def test_uniform_when_delta_zero():
    for rank in (1, 15, 30):
        assert request_probability(rank, 0.0, 30) == 1.0 / 30.0


def test_two_rank_split():
    assert abs(request_probability(1, 1.0, 2) - 2.0 / 3.0) < 1e-15
    assert abs(request_probability(2, 1.0, 2) - 1.0 / 3.0) < 1e-15


def test_top_rank_golden():
    assert abs(request_probability(1, 1.0, 30) - 1.0 / H_30) < 1e-15


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
def test_normalization(delta):
    total = sum(request_probability(r, delta, 30) for r in range(1, 31))
    assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_non_increasing_in_rank(delta):
    probs = [request_probability(r, delta, 30) for r in range(1, 31)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_float_sums_fold_left_on_every_python():
    # CPython 3.12's sum() compensates, and gives 1.0000000000000002e16 here,
    # and 3.994987130920391 for the default Zipf norm; the fold keeps 3.11's bits
    assert left_sum((1e16, 1.0, 1.0)) == 1e16
    assert left_sum(iter(())) == 0.0
    assert zipf_pmf(1.0, 30)[0] == 1.0 / H_30
    cfg = default_config().scenario
    assert library_capacity(cfg, (1e16, 1.0, 1.0)) == cfg.capacity_fraction * 1e16
    cache = evict_mrc(empty_cache((1e16, 1.0, 1.0), 1e16, 1.0), 1, 1e16)
    cache = evict_mrc(evict_mrc(cache, 2, 1.0), 3, 1.0)
    assert placed_ranks(cache) == {1, 2, 3}  # held: 1e16 + 1.0 + 1.0 folds to 1e16


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        request_probability(0, 1.0, 30)
    with pytest.raises(ValueError):
        request_probability(31, 1.0, 30)


@pytest.mark.parametrize("delta", [-0.5, math.nan], ids=["negative", "nan"])
def test_bad_skew_rejected(delta):
    with pytest.raises(ValueError):
        request_probability(1, delta, 30)


# --- hits ------------------------------------------------------------------


def test_is_hit_lifecycle():
    cache = two_slot_cache()
    assert not any(is_hit(cache, r) for r in range(1, 31))
    cache = evict_mrc(cache, 3, 1.0)
    assert is_hit(cache, 3)
    cache = evict_mrc(evict_mrc(cache, 4, 1.0), 5, 1.0)  # 3 is now the oldest
    assert not is_hit(cache, 3)


# --- MRC -------------------------------------------------------------------


def test_mrc_keeps_most_recent():
    cache = two_slot_cache()
    for rank in (1, 2, 3):
        cache = evict_mrc(cache, rank, 1.0)
    assert placed_ranks(cache) == {2, 3}


def test_mrc_retouch_refreshes():
    cache = two_slot_cache()
    cache = evict_mrc(cache, 1, 1.0)
    cache = evict_mrc(cache, 2, 1.0)
    cache = evict_mrc(cache, 1, 1.0)  # touch 1 again
    cache = evict_mrc(cache, 3, 1.0)
    assert placed_ranks(cache) == {1, 3}


def test_mrc_rejects_oversized_unchanged():
    cache = evict_mrc(two_slot_cache(), 1, 1.0)
    after = evict_mrc(cache, 2, 5.0)
    assert after == cache


# --- MPC -------------------------------------------------------------------


def test_mpc_drops_unpopular_incoming():
    cache = evict_mpc(evict_mpc(two_slot_cache(), 1, 1.0), 2, 1.0)
    after = evict_mpc(cache, 30, 1.0)
    assert placed_ranks(after) == {1, 2}


def test_mpc_evicts_least_popular_resident():
    cache = evict_mpc(evict_mpc(two_slot_cache(), 29, 1.0), 30, 1.0)
    after = evict_mpc(cache, 1, 1.0)
    assert placed_ranks(after) == {1, 29}


def test_mpc_uniform_ties_evict_larger_rank():
    cache = two_slot_cache(delta=0.0)
    cache = evict_mpc(evict_mpc(cache, 5, 1.0), 12, 1.0)
    after = evict_mpc(cache, 3, 1.0)
    assert placed_ranks(after) == {3, 5}


def test_mpc_rejects_oversized_unchanged():
    cache = evict_mpc(two_slot_cache(), 1, 1.0)
    assert evict_mpc(cache, 2, 2.5) == cache


# --- replaying caching actions ----------------------------------------------


def _chain():
    return (
        SubTask(Category.DOWNLOAD, d_in=0.0, d_out=1.0, rho=0.0, out_rank=7),
        SubTask(Category.UPLOAD, d_in=1.0, d_out=0.0, rho=0.0, out_rank=0),
        SubTask(Category.COMPUTE, d_in=1.0, d_out=1.0, rho=10.0, out_rank=9),
    )


def test_apply_all_zero_bits_is_identity():
    cache = two_slot_cache()
    assert apply_caching_action(cache, _chain(), (0, 0, 0), "mrc") == cache


def test_apply_caches_flagged_outputs():
    cache = apply_caching_action(two_slot_cache(), _chain(), (1, 1, 1), "mrc")
    assert placed_ranks(cache) == {7, 9}  # upload has nothing to cache


def test_apply_matches_stepwise_replay():
    task = _chain()
    whole = apply_caching_action(two_slot_cache(), task, (1, 0, 1), "mpc")
    step = evict_mpc(evict_mpc(two_slot_cache(), 7, 1.0), 9, 1.0)
    assert whole == step


def test_apply_validates_inputs():
    with pytest.raises(ValueError):
        apply_caching_action(two_slot_cache(), _chain(), (1, 0), "mrc")
    with pytest.raises(ValueError):
        apply_caching_action(two_slot_cache(), _chain(), (1, 0, 0), "lru")


# --- capacity invariant under random operation sequences --------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["mrc", "mpc"]),
                          st.integers(min_value=1, max_value=12),
                          st.floats(min_value=0.1, max_value=6.0)),
                max_size=40),
       st.floats(min_value=0.5, max_value=8.0))
def test_capacity_never_exceeded(ops, capacity):
    cache = empty_cache(sizes=(1.0,) * 12, capacity_bytes=capacity, delta=1.0)
    for policy, rank, nbytes in ops:
        cache = (evict_mrc if policy == "mrc" else evict_mpc)(cache, rank, nbytes)
        assert cached_bytes(cache) <= cache.capacity_bytes
        assert set(cache.placement) <= {0, 1}
        # recency stamps of cached items are unique and below the clock
        stamps = [cache.recency[r - 1] for r in placed_ranks(cache)]
        assert len(stamps) == len(set(stamps))
        assert all(0 < s < cache.clock for s in stamps)


def test_cache_state_validates_lengths():
    with pytest.raises(ValueError):
        CacheState(sizes=(1.0, 1.0), placement=(0,), capacity_bytes=1.0,
                   delta=1.0, recency=(0, 0), clock=1)


@pytest.mark.parametrize("make", [
    lambda: evict_mrc(empty_cache((1.0,) * 3, 2.0, 1.0), 1, math.nan),
    lambda: evict_mpc(empty_cache((1.0,) * 3, 2.0, 1.0), 1, math.nan),
    lambda: empty_cache((1.0,) * 3, math.nan, 1.0),
    lambda: empty_cache((1.0,) * 3, math.inf, 1.0),
    lambda: empty_cache((1.0,) * 3, -1.0, 1.0),
    lambda: empty_cache((1.0,) * 3, 2.0, -0.5),
    lambda: empty_cache((1.0,) * 3, 2.0, math.nan),
    lambda: empty_cache((1.0,) * 3, 2.0, math.inf),
], ids=["mrc-nan-size", "mpc-nan-size", "nan-capacity", "inf-capacity",
        "negative-capacity", "negative-delta", "nan-delta", "inf-delta"])
def test_cache_rejects_bad_sizes_capacities_and_skews(make):
    with pytest.raises(ValueError):
        make()


# --- eviction against a naive rebuild-per-step reference ---------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["mrc", "mpc"]),
                          st.integers(min_value=1, max_value=8),
                          st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0])),
                max_size=30),
       st.sampled_from([0.6, 0.9, 1.0, 1.2, 2.0]),
       st.sampled_from([0.0, 1.0]))
def test_eviction_matches_naive_reference(ops, capacity, delta):
    # decimal sizes make float sums order-sensitive, and delta = 0 makes
    # every MPC key tie, so both victim order and tie-break are exercised
    cache = expected = empty_cache((1.0,) * 8, capacity, delta)
    for policy, rank, nbytes in ops:
        cache = (evict_mrc if policy == "mrc" else evict_mpc)(cache, rank, nbytes)
        expected = reference_evict(expected, rank, nbytes, policy)
        assert cache == expected


# 0.0 and -0.0 compare and hash equal but print apart, and 1.0 is the size
# most ranks start at, so offers often repeat the stored size
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["mrc", "mpc"]),
                          st.integers(min_value=1, max_value=8),
                          st.sampled_from([0.0, -0.0, 0.1, 0.3, 1.0])),
                max_size=30),
       st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=8, max_size=8),
       st.sampled_from([0.6, 1.0, 2.0]),
       st.sampled_from([0.0, 1.0]))
def test_offered_state_is_the_state_its_fields_construct(ops, sizes, capacity, delta):
    # an offer's state must be the CacheState its fields make, down to repr
    # and hash
    cache = expected = empty_cache(tuple(sizes), capacity, delta)
    for policy, rank, nbytes in ops:
        cache = (evict_mrc if policy == "mrc" else evict_mpc)(cache, rank, nbytes)
        expected = reference_evict(expected, rank, nbytes, policy)
        built = CacheState(**{f.name: getattr(cache, f.name) for f in fields(CacheState)})
        for state in (built, expected):
            assert cache == state
            assert hash(cache) == hash(state)
            assert repr(cache) == repr(state)
