"""Config validation: every value reaching physics or prices is checked."""

from dataclasses import replace

import numpy as np
import pytest

from satedge.cli import HIDDEN_LAYER_GRID, RAIN_GRID
from satedge.config import (ConfigError, SimConfig, default_config, dump_config,
                            load_config, validate_config)
from satedge.oracle import build_dataset
from satedge.scenario import episode_stream


@pytest.mark.parametrize("line", [
    "price_cpl = nan",
    "prop_sg_s = -5",
    "cpu_rate_hz = 0",
    "bandwidth_fh_hz = 0",
    "bandwidth_bh_hz = -1e6",
    "prop_vs_s = -0.01",
    "snr_fh_db = inf",
    "learning_rate = nan",
    "num_subtasks = 0",
    "size_min_bytes = 6e5",
    "rho_max = 0",
    "num_ranks = 0",
    "mix_compute = 0.5",
    "adam_beta1 = 1.5",
    "adam_beta1 = 1.0",
    "adam_beta2 = 1.0",
    "adam_beta2 = -0.5",
    "adam_eps = -1",
    "adam_eps = 0",
    "price_cpl = 0",
    "snr_fh_db = 4000",
    "snr_jitter_db = 1e308",
    "snr_fh_db = -157",
    "snr_bh_db = -400",
    "bandwidth_fh_hz = 1e308",
])
def test_out_of_domain_value_is_a_config_error(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(path)


def test_coverage_s_must_be_positive_in_orbit_mode_too():
    cfg = default_config()
    cfg.scenario.coverage_mode = "orbit"
    cfg.scenario.coverage_s = 0.0
    with pytest.raises(ConfigError, match="coverage_s"):
        validate_config(cfg)


def test_zero_propagation_delay_is_allowed(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("prop_vs_s = 0\nprop_sg_s = 0.0\n")
    cfg = load_config(path)
    assert cfg.scenario.prop_vs_s == cfg.scenario.prop_sg_s == 0.0


@pytest.mark.parametrize("text", [
    "snr_fh_db = -150\n",  # lowest draw -153 dB still has a rate above 0
    "snr_bh_db = 3079\n",  # highest draw 3082 dB is still a finite SNR and rate
    "bandwidth_bh_hz = 1e300\n",
    "price_cpl = 1e-300\nprice_comp = 0\nprice_comm = 0\nprice_cache = 0\n",
])
def test_link_budget_and_price_edges_are_allowed(tmp_path, text):
    path = tmp_path / "ok.txt"
    path.write_text(text)
    cfg = load_config(path)
    for _, state in episode_stream(cfg.scenario, 5, 20):
        assert state.link.rate_fh > 0 and state.link.rate_bh > 0


@pytest.mark.parametrize("text, names", [
    # unchecked, each puts NaN or inf into dataset.txt or metrics.csv
    ("rho_max = 1e308\n", ("rho_max", "size_max_bytes")),
    ("price_comp = 1e300\nrho_max = 1e10\n", ("price_comp", "rho_max", "size_max_bytes")),
    ("cpu_rate_hz = 1e-300\n", ("cpu_rate_hz",)),
    ("num_subtasks = 3\nprice_cpl = 1e308\n", ("num_subtasks",)),  # finite per sub-task
], ids=["cycles", "compute-charge", "local-time", "chain-cost"])
def test_overflowing_extremes_are_config_errors(tmp_path, text, names):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match="overflows") as err:
        load_config(path)
    assert all(name in str(err.value) for name in names)


@pytest.mark.parametrize("text", [
    "price_comp = 1e290\nrho_max = 1e10\n",
    "cpu_rate_hz = 1e-290\n",
], ids=["compute-charge", "local-time"])
def test_extremes_short_of_overflow_label_finitely(tmp_path, text):
    path = tmp_path / "ok.txt"
    path.write_text(text)
    demos = build_dataset(load_config(path).scenario, 20, 3)
    assert all(np.isfinite(d.features).all() and np.isfinite(d.opt_reward) for d in demos)


def test_defaults_and_sweep_grids_validate():
    cfg = default_config()
    for lam in RAIN_GRID:
        validate_config(SimConfig(replace(cfg.scenario, rain_attenuation=lam), cfg.train))
    for k in HIDDEN_LAYER_GRID:
        validate_config(SimConfig(cfg.scenario, replace(cfg.train, hidden_layers=k)))


def test_adam_domain_edges_are_allowed(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("adam_beta1 = 0\nadam_beta2 = 0.0\nadam_eps = 1e-300\n")
    cfg = load_config(path)
    assert (cfg.train.adam_beta1, cfg.train.adam_beta2) == (0.0, 0.0)


@pytest.mark.parametrize("alias, field, value", [
    ("B_vs_hz", "bandwidth_fh_hz", 1.5e6),
    ("B_sg_hz", "bandwidth_bh_hz", 2.5e6),
    ("lambda", "rain_attenuation", 0.5),
    ("d_vs_s", "prop_vs_s", 0.02),
    ("d_sg_s", "prop_sg_s", 0.25),
])
def test_each_alias_loads_into_its_field(tmp_path, alias, field, value):
    by_alias, by_name = tmp_path / "alias.txt", tmp_path / "name.txt"
    by_alias.write_text(f"{alias} = {value!r}\n")
    by_name.write_text(f"{field} = {value!r}\n")
    assert getattr(load_config(by_alias).scenario, field) == value
    assert load_config(by_alias) == load_config(by_name)


@pytest.mark.parametrize("first, second, field", [
    ("num_ranks = 20", "num_ranks = 40", "num_ranks"),
    ("lambda = 0.5", "rain_attenuation = 0.9", "rain_attenuation"),
    ("rain_attenuation = 0.9", "lambda = 0.5", "rain_attenuation"),
    ("d_sg_s = 0.25", "d_sg_s = 0.25", "prop_sg_s"),  # even to the same value
    ("max_epochs = 5", "max_epochs = 5", "max_epochs"),
])
def test_a_field_set_twice_is_a_config_error(tmp_path, first, second, field):
    path = tmp_path / "c.txt"
    path.write_text(f"# header\n{first}\n{second}\n")
    with pytest.raises(ConfigError, match=rf"c\.txt:3: {field} is set twice, on lines 2 and 3"):
        load_config(path)


@pytest.mark.parametrize("overrides", [
    {},
    {"coverage_mode": "orbit", "persistent_eviction": "mpc"},
])
def test_dumped_config_loads_back_equal(tmp_path, overrides):
    cfg = default_config()
    for key, value in overrides.items():
        section = cfg.scenario if hasattr(cfg.scenario, key) else cfg.train
        setattr(section, key, value)
    path = tmp_path / "config_used.txt"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg


@pytest.mark.parametrize("coverage_mode", ["fixed", "orbit"])
@pytest.mark.parametrize("line", [
    "altitude_km = -5",
    "earth_radius_km = 0",
    "min_elevation_deg = -1",
    "min_elevation_deg = 90.5",
    "earth_rotation_rad_s = 1",  # the ground track outruns the satellite
])
def test_orbit_fields_are_checked_in_both_coverage_modes(tmp_path, coverage_mode, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"coverage_mode = {coverage_mode}\n{line}\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(path)


@pytest.mark.parametrize("text", [
    "min_elevation_deg = 0\n",
    "min_elevation_deg = 90\naltitude_km = 1e-3\n",
])
def test_orbit_domain_edges_are_allowed_in_fixed_mode(tmp_path, text):
    path = tmp_path / "ok.txt"
    path.write_text(text)
    assert load_config(path).scenario.coverage_mode == "fixed"


def test_orbit_mode_needs_a_coverage_cap_of_positive_width(tmp_path):
    # a 90 degree mask shrinks the cap to a point: every drawn window is 0 s
    path = tmp_path / "bad.txt"
    path.write_text("coverage_mode = orbit\nmin_elevation_deg = 90\n")
    with pytest.raises(ConfigError, match="min_elevation_deg"):
        load_config(path)
