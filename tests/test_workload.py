from dataclasses import replace

from hypothesis import given, settings, strategies as st

from satedge.config import ScenarioConfig
from satedge.workload import Category, generate_task

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
