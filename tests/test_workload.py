import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from satedge.config import ScenarioConfig
from satedge.workload import (Category, _category_picker, decode_tasks, generate_task,
                              task_chains)

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


# ---------------------------------------------------------------------------
# decoding a block's chains from raw PCG64 output

MASK32 = 0xFFFFFFFF


def _double(x: int) -> float:
    return (x >> 11) * 2.0**-53


def _lemire(words, ranks: int) -> tuple[int, int]:
    """numpy's bounded 32-bit draw of 1..ranks: (rank, words read)."""
    for used, u in enumerate(words, start=1):
        m = u * ranks
        if m & MASK32 >= (2**32 - ranks) % ranks:
            return (m >> 32) + 1, used
    raise AssertionError("ran out of words")


def test_generator_consumes_raw_output_as_decode_tasks_reads_it():
    """decode_tasks re-implements how numpy's Generator reads PCG64's raw
    output; a numpy that changes any of these rules fails here by name."""
    bits = np.random.PCG64(2024)
    gen = np.random.Generator(bits)
    start = bits.state
    raw = [int(x) for x in bits.random_raw(64)]
    bits.state = start
    assert gen.random() == _double(raw[0]), \
        "random() no longer returns (raw >> 11) * 2**-53 of one output"
    assert gen.uniform(3.0, 7.5) == 3.0 + (7.5 - 3.0) * _double(raw[1]), \
        "uniform(a, b) no longer returns a + (b - a) * random() of one output"
    assert _lemire([raw[2] & MASK32], 30)[1] == 1 and _lemire([raw[2] >> 32], 30)[1] == 1
    assert gen.integers(1, 31) == _lemire([raw[2] & MASK32], 30)[0], \
        "integers(1, R + 1) no longer reads the low half of a fresh output"
    assert gen.random() == _double(raw[3]), \
        "a double no longer reads a fresh output past a buffered uint32"
    assert gen.integers(1, 31) == _lemire([raw[2] >> 32], 30)[0], \
        "integers(1, R + 1) no longer reads the high half buffered by the previous call"
    assert gen.integers(1, 2) == 1 and gen.random() == _double(raw[4]), \
        "integers(1, 2) no longer consumes nothing"
    # about half of all words fall in the rejection zone of R = 2^31 + 1
    ranks = 2**31 + 1
    words = [w for x in raw[5:] for w in (x & MASK32, x >> 32)]
    rejected = 0
    for _ in range(20):
        rank, used = _lemire(words, ranks)
        assert gen.integers(1, ranks + 1) == rank, \
            "integers(1, R + 1) no longer rejects by Lemire's test and reads the next word"
        words, rejected = words[used:], rejected + used - 1
    assert rejected > 0


def _float_bits(task) -> list[tuple[str, ...]]:
    return [(s.d_in.hex(), s.d_out.hex(), s.rho.hex()) for s in task]


def _raw_rows(cfg, n: int) -> tuple[np.ndarray, list[dict]]:
    """n rows of 4V raw outputs, and the generator state each row starts at."""
    bits = np.random.PCG64(77)
    raw, states = [], []
    for _ in range(n):
        states.append(bits.state)
        raw.append(bits.random_raw(4 * cfg.num_subtasks))
    return np.array(raw), states


def test_decode_masks_exactly_the_rows_it_cannot_decode():
    """Crafted words: a compute rho of exactly 0.0, which generate_task redraws,
    and rank words in Lemire's rejection zone, fresh and buffered, are left to
    generate_task; every other row decodes to generate_task's chain."""
    cfg = scenario(rho_min=0.0, num_ranks=30)  # (2^32 - 30) % 30 = 16: word 0 is rejected
    raw, states = _raw_rows(cfg, 40)
    pick_compute = 2**64 - 1  # the largest double: the last category
    raw[0, 0], raw[0, 3] = pick_compute, 2**11 - 1  # rho's double is 0.0
    raw[1, 0], raw[1, 1] = pick_compute, raw[1, 1] & ~np.uint64(MASK32)  # fresh word 0
    # two computes: the first rank reads a kept low word, the second the buffered 0
    raw[2, 0], raw[2, 4] = pick_compute, pick_compute
    raw[2, 1] = (raw[2, 1] & np.uint64(MASK32)) | np.uint64(1)
    exact, columns = decode_tasks(raw, cfg, LIBRARY)
    assert [i for i, ok in enumerate(exact.tolist()) if not ok] == [0, 1, 2]
    for task, state in list(zip(task_chains(columns, slice(None)), states))[3:]:
        bits = np.random.PCG64()
        bits.state = state
        expected = generate_task(np.random.Generator(bits), cfg, LIBRARY)
        assert task == expected
        assert _float_bits(task) == _float_bits(expected)

