import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from satedge.config import ScenarioConfig
from satedge.workload import Category, _category_picker, generate_task

from conftest import reference_generate_task

# bytes per popularity rank 1..30, distinct so a wrong lookup shows
LIBRARY = tuple(float(100e3 + 10e3 * r) for r in range(30))


def scenario(**overrides):
    return replace(ScenarioConfig(), **overrides)


def test_same_seed_same_task():
    cfg = scenario()
    assert generate_task(7, cfg, LIBRARY) == generate_task(7, cfg, LIBRARY)
    assert generate_task(7, cfg, LIBRARY) != generate_task(8, cfg, LIBRARY)


def test_all_upload_mix():
    cfg = scenario(mix_upload=1.0, mix_download=0.0, mix_compute=0.0)
    task = generate_task(3, cfg, LIBRARY)
    assert all(st_.category is Category.UPLOAD for st_ in task)
    assert all(st_.d_out == 0.0 and st_.zeta == 0.0 for st_ in task)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_generated_tasks_satisfy_category_signs(seed):
    cfg = scenario(mix_upload=1 / 3, mix_download=1 / 3, mix_compute=1 / 3)
    for sub in generate_task(seed, cfg, LIBRARY):
        assert sub.zeta == sub.rho * sub.d_in
        if sub.category is Category.UPLOAD:
            assert sub.zeta == 0 and sub.d_in > 0 and sub.d_out == 0
            assert sub.out_rank == 0
        elif sub.category is Category.DOWNLOAD:
            assert sub.zeta == 0 and sub.d_in == 0 and sub.d_out > 0
            assert 1 <= sub.out_rank <= cfg.num_ranks
        else:
            assert sub.category is Category.COMPUTE
            assert sub.zeta > 0 and sub.d_in > 0 and sub.d_out > 0
            assert 1 <= sub.out_rank <= cfg.num_ranks
        assert 100e3 <= sub.d_in <= 500e3 or sub.d_in == 0.0
        assert 0.0 <= sub.rho <= 12000.0


def test_rank_sizes_pin_output_bytes():
    cfg = scenario(mix_upload=0.0, mix_download=0.5, mix_compute=0.5)
    for sub in generate_task(11, cfg, LIBRARY):
        assert sub.d_out == LIBRARY[sub.out_rank - 1]


@st.composite
def category_mixes(draw):
    """Non-negative three-way mixes, any slot possibly zero, summing to 1 +- 1e-9."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    zero = draw(st.sampled_from([None, 0, 1, 2]))
    if zero is not None:
        weights[zero] = 0.0
    total = math.fsum(weights)
    if total == 0.0:
        weights, total = [1.0, 1.0, 1.0], 3.0
    mix = [w / total for w in weights]
    big = mix.index(max(mix))  # nudge the largest slot, so none turns negative
    mix[big] += draw(st.floats(-5e-10, 5e-10))
    return tuple(mix)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1), category_mixes())
@example(1, (1 / 3, 1 / 3, 1 / 3))
@example(2, (0.0, 0.5, 0.5))
@example(3, (0.5, 0.0, 0.5))
@example(4, (0.5, 0.5, 0.0))
@example(5, (0.05, 0.05, 0.9))
@example(6, (0.1, 0.2, 0.7 + 5e-10))
@example(7, (0.3, 0.3, 0.4 - 8e-10))
def test_category_draw_matches_numpy_choice(seed, mix):
    """One random() through the memoised picker equals rng.choice(3, p=mix)."""
    assert abs(math.fsum(mix) - 1.0) <= 1e-9 and min(mix) >= 0.0
    pick = _category_picker(mix)
    by_choice, by_pick = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(64):
        assert pick(by_pick.random()) == int(by_choice.choice(3, p=mix))
    assert by_pick.bit_generator.state == by_choice.bit_generator.state
    # numpy's CDF, summed left to right and divided by its last entry; a draw
    # in [0, 1) on a bound falls to the same side, and never into a zero-width slot
    partial_sums = list(itertools.accumulate(mix))
    cdf = [c / partial_sums[-1] for c in partial_sums]
    bounds = (0.0, *cdf, *(math.nextafter(c, 0.0) for c in cdf))
    for u in (u for u in bounds if u < 1.0):
        assert pick(u) == int(np.searchsorted(cdf, u, side="right"))
        assert mix[pick(u)] > 0.0
    # generate_task draws through the picker and consumes the stream as before
    cfg = scenario(mix_upload=mix[0], mix_download=mix[1], mix_compute=mix[2],
                   num_subtasks=12)
    assert generate_task(seed, cfg, LIBRARY) == reference_generate_task(seed, cfg, LIBRARY)


@pytest.mark.parametrize("mix", [(0.2, 0.2, 0.2), (-0.1, 0.6, 0.5), (math.nan, 0.5, 0.5)],
                         ids=["short-sum", "negative", "nan"])
def test_mix_that_numpy_choice_refuses_raises(mix):
    cfg = scenario(mix_upload=mix[0], mix_download=mix[1], mix_compute=mix[2])
    with pytest.raises(ValueError):
        generate_task(1, cfg, LIBRARY)
