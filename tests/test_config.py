"""Config validation: every value reaching physics or prices is checked."""

import pytest

from satedge.config import (ConfigError, default_config, dump_config, load_config,
                            validate_config)


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


def test_adam_domain_edges_are_allowed(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("adam_beta1 = 0\nadam_beta2 = 0.0\nadam_eps = 1e-300\n")
    cfg = load_config(path)
    assert (cfg.train.adam_beta1, cfg.train.adam_beta2) == (0.0, 0.0)


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
