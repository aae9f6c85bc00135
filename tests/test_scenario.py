from dataclasses import replace

import numpy as np
import pytest

from satedge.channel import link_rate, snr_from_db
from satedge.config import default_config
from satedge.geometry import earth_central_angle, relative_angular_velocity
from satedge.scenario import (episode_state, library_capacity, make_library, orbit_params,
                              prices_from)
from satedge.workload import Category

from conftest import (cached_bytes, reference_episode_state, reference_generate_task,
                      reference_stream_rng, states_of, stream_blocks)


def collect(cfg, seed, n):
    return states_of(stream_blocks(cfg.scenario, seed, n))


def test_stream_is_deterministic(cfg):
    assert collect(cfg, 42, 20) == collect(cfg, 42, 20)
    assert collect(cfg, 42, 20) != collect(cfg, 43, 20)


def test_random_access_matches_stream(cfg):
    library = make_library(cfg.scenario, 42)
    states = collect(cfg, 42, 25)
    for i in (0, 7, 24):
        assert episode_state(cfg.scenario, 42, i, library) == states[i]


def test_library_shape_and_capacity(cfg):
    library = make_library(cfg.scenario, 42)
    assert len(library) == cfg.scenario.num_ranks
    assert all(100e3 <= s <= 500e3 for s in library)
    assert library_capacity(cfg.scenario, library) == 0.3 * sum(library)


def test_placements_partial_and_within_budget(cfg):
    cap = library_capacity(cfg.scenario, make_library(cfg.scenario, 42))
    fills = []
    for state in collect(cfg, 42, 60):
        used = cached_bytes(state.cache)
        assert used <= cfg.scenario.placement_fill_max * cap
        fills.append(used / cap)
    # the draw spreads placements out instead of pinning one fill level
    assert min(fills) < 0.1 and max(fills) > 0.3


def test_outputs_sized_by_library(cfg):
    library = make_library(cfg.scenario, 42)
    for state in collect(cfg, 42, 40):
        for sub in state.task:
            if sub.d_out > 0:
                assert sub.d_out == library[sub.out_rank - 1]
            # (zeta, d_in, d_out) positive / zero pattern of each category
            assert (sub.zeta > 0, sub.d_in > 0, sub.d_out > 0) == {
                Category.UPLOAD: (False, True, False),
                Category.DOWNLOAD: (False, False, True),
                Category.COMPUTE: (True, True, True),
            }[sub.category]
            assert min(sub.zeta, sub.d_in, sub.d_out) >= 0


def test_link_jitter_stays_in_band(cfg):
    s = cfg.scenario
    lo_fh = link_rate(s.rain_attenuation, s.bandwidth_fh_hz,
                      snr_from_db(s.snr_fh_db - s.snr_jitter_db))
    hi_fh = link_rate(s.rain_attenuation, s.bandwidth_fh_hz,
                      snr_from_db(s.snr_fh_db + s.snr_jitter_db))
    rates = [state.link.rate_fh for state in collect(cfg, 42, 60)]
    assert all(lo_fh <= r <= hi_fh for r in rates)
    assert len(set(rates)) > 50  # jitter actually varies per episode


def test_fixed_coverage_mode(cfg):
    assert all(state.t_c == cfg.scenario.coverage_s
               for state in collect(cfg, 42, 10))


def test_orbit_coverage_mode(cfg):
    cfg = replace(cfg, scenario=replace(cfg.scenario, coverage_mode="orbit"))
    params = orbit_params(cfg.scenario)
    t_max = earth_central_angle(params) / relative_angular_velocity(params)
    times = [state.t_c for state in collect(cfg, 42, 60)]
    assert all(0.0 < t <= t_max for t in times)
    assert len(set(times)) > 50


def test_prices_follow_config(cfg):
    p = prices_from(cfg.scenario)
    assert (p.comp, p.comm, p.cache, p.cpl) == (1e-10, 1e-6, 1e-6, 0.2)


@pytest.mark.parametrize("mode", ["fixed", "orbit"])
@pytest.mark.parametrize("num_subtasks", [1, 6, 9])
def test_draw_matches_choice_reference(cfg, mode, num_subtasks):
    """Stream v1 is unchanged: same task, link, window and full cache state,
    against a lone draw whose chain draws each category with rng.choice and
    whose placement packs one numpy index at a time."""
    scen = replace(cfg.scenario, coverage_mode=mode, num_subtasks=num_subtasks)
    library = make_library(scen, 42)
    states = [episode_state(scen, 42, i, library) for i in range(40)]
    expected = [replace(reference_episode_state(scen, 42, i, library),
                        task=reference_generate_task(reference_stream_rng(42, i, 0), scen,
                                                     library))
                for i in range(40)]
    for got, want in zip(states, expected):
        assert got == want  # task, window, link, CPU rate and every CacheState field
        assert all(type(s) is float for s in got.cache.sizes)


@pytest.mark.parametrize("ranks", [1, 2, 30, 200])
def test_generator_draws_a_placement_as_the_block_draw_reads_it(ranks):
    """The block draw reads a placement's uniform fill as one raw output and
    its permutation as a shuffle of arange(R) on the same bit generator; a
    numpy that changes either rule fails here by name."""
    for seed in range(20):
        gen = np.random.default_rng(seed)
        bits = np.random.PCG64()
        bits.state = gen.bit_generator.state
        x = bits.random_raw()
        assert gen.uniform(0.0, 0.5) == 0.0 + (0.5 - 0.0) * ((x >> 11) * 2.0**-53), \
            "uniform(a, b) no longer reads one raw output"
        shuffled = np.arange(ranks)
        np.random.Generator(bits).shuffle(shuffled)
        assert gen.permutation(ranks).tolist() == shuffled.tolist(), \
            "permutation(R) no longer draws as a shuffle of arange(R)"
        assert gen.bit_generator.state == bits.state
