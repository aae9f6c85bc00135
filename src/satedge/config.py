"""Dataclass configs and the flat key=value config file format.

A config file is plain text, one ``key = value`` pair per line, ``#``
starts a comment. Keys are the dataclass field names below, each set at
most once, under its name or an alias; every key has a default, so an
empty (or absent) file is a valid config.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .channel import link_rate, snr_from_db, transmit_time
from .geometry import (CoverageDomainError, OrbitParams, earth_central_angle,
                       relative_angular_velocity)


class ConfigError(ValueError):
    """Bad config file or inconsistent config values."""


@dataclass
class ScenarioConfig:
    """Episode distribution, physical constants, and pricing."""

    # task chain
    num_subtasks: int = 6
    size_min_bytes: float = 100e3  # data sizes uniform in [min, max] bytes (KB = 1e3 B)
    size_max_bytes: float = 500e3
    rho_min: float = 0.0  # compute density in cycles per input byte
    rho_max: float = 12000.0
    mix_upload: float = 0.05
    mix_download: float = 0.05
    mix_compute: float = 0.90

    # content library and on-board cache
    num_ranks: int = 30
    zipf_delta: float = 1.0
    capacity_fraction: float = 0.3  # cache size as a share of total library bytes
    placement_fill_max: float = 0.5  # initial placements fill U[0, this] of capacity

    # links (fronthaul = vehicle <-> satellite, backhaul = satellite <-> ground)
    bandwidth_fh_hz: float = 2e6
    bandwidth_bh_hz: float = 3e6
    snr_fh_db: float = 30.0
    snr_bh_db: float = 30.0
    snr_jitter_db: float = 3.0  # per-episode uniform jitter, +/- dB on each hop
    rain_attenuation: float = 0.8
    prop_vs_s: float = 0.03
    prop_sg_s: float = 0.27

    # edge server
    cpu_rate_hz: float = 1e10  # cycles per second

    # coverage window
    coverage_mode: str = "fixed"  # "fixed" or "orbit"
    coverage_s: float = 300.0
    earth_radius_km: float = 6371.0
    altitude_km: float = 780.0
    min_elevation_deg: float = 10.0
    inclination_deg: float = 86.4
    earth_rotation_rad_s: float = 7.2921e-5

    # reward prices
    price_comp: float = 1e-10  # per cycle executed locally
    price_comm: float = 1e-6  # per byte offloaded
    price_cache: float = 1e-6  # per byte pinned in the cache
    price_cpl: float = 0.2  # per second of completion time


@dataclass
class TrainConfig:
    """Imitation-learning dataset, optimizer, and evaluation knobs."""

    dataset_episodes: int = 50000
    train_frac: float = 0.8
    val_frac: float = 0.1  # test split is the remainder
    hidden_layers: int = 3
    hidden_width: int = 128
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    # smaller budgets reused by every sweep grid point
    sweep_episodes: int = 8000
    sweep_epochs: int = 30
    sweep_patience: int = 5
    compare_episodes: int = 2000
    persistent_eviction: str = "mrc"  # cache policy applied on persistent eval runs


@dataclass
class SimConfig:
    scenario: ScenarioConfig
    train: TrainConfig


_COERCE = {"int": int, "float": float, "str": str}

# short link-budget spellings accepted in config files alongside field names
_KEY_ALIASES = {
    "B_vs_hz": "bandwidth_fh_hz",
    "B_sg_hz": "bandwidth_bh_hz",
    "lambda": "rain_attenuation",
    "d_vs_s": "prop_vs_s",
    "d_sg_s": "prop_sg_s",
}


def _field_map(cfg) -> dict[str, type]:
    return {f.name: _COERCE[f.type] for f in fields(cfg)}


def default_config() -> SimConfig:
    return SimConfig(ScenarioConfig(), TrainConfig())


def load_config(path: str | Path | None) -> SimConfig:
    """Parse a key=value file over the defaults. None returns pure defaults."""
    cfg = default_config()
    if path is None:
        validate_config(cfg)
        return cfg
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    smap, tmap = _field_map(cfg.scenario), _field_map(cfg.train)
    set_on: dict[str, int] = {}  # field name -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _KEY_ALIASES.get(key, key)
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is set twice, "
                              f"on lines {set_on[key]} and {lineno}")
        set_on[key] = lineno
        try:
            if key in smap:
                setattr(cfg.scenario, key, smap[key](value))
            elif key in tmap:
                setattr(cfg.train, key, tmap[key](value))
            else:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    validate_config(cfg)
    return cfg


def orbit_params(cfg: ScenarioConfig) -> OrbitParams:
    return OrbitParams(
        earth_radius_km=cfg.earth_radius_km,
        altitude_km=cfg.altitude_km,
        min_elevation_rad=math.radians(cfg.min_elevation_deg),
        inclination_rad=math.radians(cfg.inclination_deg),
        earth_rotation_rate=cfg.earth_rotation_rad_s,
    )


def validate_config(cfg: SimConfig) -> None:
    """Raise ConfigError for a non-finite float field or an out-of-domain value."""
    s, t = cfg.scenario, cfg.train
    for section in (s, t):
        for f in fields(section):
            value = getattr(section, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
    mix = s.mix_upload + s.mix_download + s.mix_compute
    if abs(mix - 1.0) > 1e-9 or min(s.mix_upload, s.mix_download, s.mix_compute) < 0:
        raise ConfigError("category mix mix_upload, mix_download, mix_compute must be "
                          f"nonnegative and sum to 1, got sum {mix}")
    if s.num_subtasks < 1:
        raise ConfigError("num_subtasks must be at least 1")
    if not 0 < s.size_min_bytes <= s.size_max_bytes:
        raise ConfigError("need 0 < size_min_bytes <= size_max_bytes")
    if not 0 <= s.rho_min <= s.rho_max or s.rho_max <= 0:
        raise ConfigError("need 0 <= rho_min <= rho_max with rho_max > 0")
    if s.num_ranks < 1:
        raise ConfigError("num_ranks must be at least 1")
    if s.zipf_delta < 0:
        raise ConfigError("zipf_delta must be nonnegative")
    if not 0 < s.capacity_fraction <= 1:
        raise ConfigError("capacity_fraction must be in (0, 1]")
    if not 0 <= s.placement_fill_max <= 1:
        raise ConfigError("placement_fill_max must be in [0, 1]")
    if not 0 < s.rain_attenuation <= 1:
        raise ConfigError("rain_attenuation must be in (0, 1]")
    if s.coverage_mode not in ("fixed", "orbit"):
        raise ConfigError(f"coverage_mode must be fixed or orbit, got {s.coverage_mode!r}")
    # in both modes: fixed-mode runs still record the orbit in config_used.txt,
    # and the coverage command reads it
    try:
        params = orbit_params(s)
        theta_0 = earth_central_angle(params)
        relative_angular_velocity(params)
        if s.coverage_mode == "orbit" and not theta_0 > 0:  # every window would be 0 s
            raise CoverageDomainError(f"coverage cap half-angle {theta_0!r} is not positive")
    except (CoverageDomainError, OverflowError) as exc:  # r**3 can overflow
        raise ConfigError("orbit fields earth_radius_km, altitude_km, min_elevation_deg, "
                          f"inclination_deg, earth_rotation_rad_s give no pass: {exc}"
                          ) from None
    # every sub-task takes positive time, so price_cpl > 0 keeps every mean reward > 0
    for name in ("cpu_rate_hz", "bandwidth_fh_hz", "bandwidth_bh_hz", "coverage_s",
                 "price_cpl"):
        if getattr(s, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("prop_vs_s", "prop_sg_s", "snr_jitter_db", "price_comp", "price_comm",
                 "price_cache"):
        if getattr(s, name) < 0:
            raise ConfigError(f"{name} must be nonnegative")
    low = []  # each hop's rate at its lowest draw
    for key, bw_key in (("snr_fh_db", "bandwidth_fh_hz"), ("snr_bh_db", "bandwidth_bh_hz")):
        lo_db, hi_db = getattr(s, key) - s.snr_jitter_db, getattr(s, key) + s.snr_jitter_db
        bandwidth = getattr(s, bw_key)
        try:  # draws span [lo_db, hi_db]; the feature scaler bounds rates at attenuation 1
            low.append(link_rate(s.rain_attenuation, bandwidth, snr_from_db(lo_db)))
            ok = low[-1] > 0 and math.isfinite(link_rate(1.0, bandwidth, snr_from_db(hi_db)))
        except OverflowError:
            ok = False
        if not ok:
            raise ConfigError(f"{key} ± snr_jitter_db spans {lo_db!r} to {hi_db!r} dB; "
                              f"with {bw_key} rates must be finite, > 0 at rain_attenuation")
    # an inf at the maxima turns features and labels inf or NaN (inf times a
    # hit's 0); the time adds every leg of any pipeline, at the slowest rates
    size, cycles = s.size_max_bytes, s.rho_max * s.size_max_bytes
    secs = (2 * transmit_time(size, low[0]) + transmit_time(size, low[1])
               + 2 * s.prop_vs_s + s.prop_sg_s + cycles / s.cpu_rate_hz)
    cost = s.price_comp * cycles + (s.price_comm + s.price_cache) * size + s.price_cpl * secs
    n = s.num_subtasks if s.num_subtasks < 2**1023 else math.inf  # past the float range
    for value, what in (
            (cycles, "the cycles rho_max * size_max_bytes"),
            (secs, "the sub-task time (rho_max * size_max_bytes / cpu_rate_hz, "
                      "size_max_bytes over the slowest link rates, prop_vs_s, prop_sg_s)"),
            (cost, "the sub-task cost price_comp * rho_max * size_max_bytes + "
                   "(price_comm + price_cache) * size_max_bytes + price_cpl * time"),
            (n * (secs + cost), "num_subtasks * the sub-task time and cost")):
        if not math.isfinite(value):
            raise ConfigError(f"{what} overflows to {value!r} at the config's maxima")
    if not 0 < t.train_frac < 1 or not 0 < t.val_frac < 1 or t.train_frac + t.val_frac >= 1:
        raise ConfigError("train_frac and val_frac must leave a nonempty test split")
    for name in ("dataset_episodes", "hidden_layers", "hidden_width", "batch_size",
                 "max_epochs", "patience", "sweep_episodes", "sweep_epochs",
                 "sweep_patience", "compare_episodes"):
        if getattr(t, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    for name in ("learning_rate", "adam_eps"):
        if getattr(t, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("adam_beta1", "adam_beta2"):
        if not 0 <= getattr(t, name) < 1:
            raise ConfigError(f"{name} must be in [0, 1)")
    if t.persistent_eviction not in ("mrc", "mpc"):
        raise ConfigError("persistent_eviction must be mrc or mpc")


def dump_config(cfg: SimConfig) -> str:
    """Canonical text form: sorted key=value lines that load_config reads back."""
    lines = []
    for section in (cfg.scenario, cfg.train):
        for f in fields(section):
            value = getattr(section, f.name)
            lines.append(f"{f.name}={value if f.type == 'str' else repr(value)}")
    return "\n".join(sorted(lines)) + "\n"


def scenario_hash(scenario: ScenarioConfig) -> str:
    """Short stable digest of the episode distribution (dataset identity)."""
    lines = sorted(f"{f.name}={getattr(scenario, f.name)!r}" for f in fields(scenario))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
