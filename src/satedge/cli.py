"""Command-line front end.

Subcommands cover the full experiment loop: generate a labeled dataset,
train the policy, evaluate or compare policies on fresh episode streams,
run the two standard sweeps, and inspect coverage geometry. Every output
file is deterministic for a fixed (config, seed); wall-clock timings are
printed to stdout only and never written to result files.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .caching import apply_caching_action
from .config import (ConfigError, SimConfig, dump_config, load_config, orbit_params,
                     scenario_hash)
from .dil import action_report, docs_actions, scheme_actions, train_policy
from .evaluator import PAIR_CACHE, InfeasibleActionError, Tables
from .geometry import (CoverageDomainError, coverage_time, earth_central_angle,
                       relative_angular_velocity)
from .neural import (CheckpointError, FeatureScaler, MLPModel, check_policy,
                     cross_entropy, forward, load_model, save_model)
from .oracle import (Demonstrations, build_dataset, label_states, read_dataset,
                     write_dataset)
from .policies import BASELINE_PAIRS, baseline_name
from .scenario import episode_blocks, make_library, prices_from

GEN_SEED = 42  # default for dataset generation, training, sweeps
EVAL_SEED = 2042  # default for held-out evaluation streams


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_episodes(episodes: int) -> None:
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")


# ---------------------------------------------------------------------------
# gen-dataset


def run_gen_dataset(cfg: SimConfig, seed: int, episodes: int, out: Path) -> Path:
    _check_episodes(episodes)
    t0 = time.perf_counter()
    demos = build_dataset(cfg.scenario, episodes, seed)
    path = out / "dataset.txt"
    write_dataset(path, demos, cfg.scenario)
    (out / "config_used.txt").write_text(dump_config(cfg))
    elapsed = time.perf_counter() - t0
    n_bits = 2 * cfg.scenario.num_subtasks
    ones = int(demos.labels.sum())
    print(f"wrote {path} ({episodes} episodes, config {scenario_hash(cfg.scenario)})")
    print(f"label density: {ones / (episodes * n_bits):.4f} ones")
    print(f"elapsed: {elapsed:.1f}s")
    return path


# ---------------------------------------------------------------------------
# train


def _check_dataset_header(header: dict[str, str], cfg: SimConfig) -> None:
    if header.get("config") != scenario_hash(cfg.scenario):
        raise ConfigError(
            "dataset was generated under a different scenario config "
            f"(dataset {header.get('config')}, current {scenario_hash(cfg.scenario)})")


def run_train(cfg: SimConfig, seed: int, dataset: Path, out: Path) -> Path:
    t0 = time.perf_counter()
    header, demos = read_dataset(dataset)
    _check_dataset_header(header, cfg)
    result = train_policy(demos, cfg.train, seed)
    scaler = FeatureScaler.from_scenario(cfg.scenario)
    model_path = out / "model.txt"
    save_model(model_path, result.model, scaler)
    _write_csv(out / "train_curve.csv", ("epoch", "train_loss", "val_loss"),
               [(e, tl, vl) for e, tl, vl in result.curve])

    # threshold-only test metrics; full decode happens in eval/compare
    y_te = demos.labels[result.test_idx].astype(np.float64)
    probs = forward(result.model, demos.features[result.test_idx])
    bit_acc = float(np.mean((probs > 0.5) == (y_te > 0.5)))
    elapsed = time.perf_counter() - t0
    print(f"wrote {model_path}")
    print(f"epochs run: {result.curve[-1][0]}, best epoch: {result.best_epoch}, "
          f"best val loss: {min(vl for _, _, vl in result.curve)!r}")
    print(f"test bit accuracy (threshold only): {bit_acc:.4f}")
    print(f"test loss: {cross_entropy(probs, y_te)!r}")
    print(f"elapsed: {elapsed:.1f}s")
    return model_path


# ---------------------------------------------------------------------------
# eval and compare: label the stream once, then score each scheme's actions
# on the same Tables blocks

_SCHEMES = ("oracle", "docs") + tuple(
    baseline_name(of, ch) for of, ch in BASELINE_PAIRS)


def _stream(cfg: SimConfig, seed: int, n: int) -> list[Tables]:
    """Episodes 0..n-1 of the stream keyed by seed, as drawn blocks."""
    scen = cfg.scenario
    return list(episode_blocks(scen, seed, range(n), make_library(scen, seed)))


def _persistent_rollout(cfg: SimConfig, seed: int, n: int, scheme: str,
                        model: MLPModel | None, scaler: FeatureScaler, eviction: str,
                        ) -> tuple[list[Tables], Demonstrations, np.ndarray]:
    """Carry the cache across episodes; episode 0 keeps its drawn placement.

    The draws do not depend on the cache, so each carried state reads its
    draw's block (Tables.carrying). Each state is acted on as a block of
    one, since its action sets the next cache. oracle and docs read the
    demonstrations, so they label each state before acting on it, and the
    blocks of one stack in episode order; a baseline reads the state alone,
    and its carried blocks, one per drawn block, are labelled in one
    label_states call at the end.
    """
    prices = prices_from(cfg.scenario)
    per_state = scheme in ("oracle", "docs")  # labels each state before acting on it
    carried: list[Tables] = []
    labelled: list[Demonstrations] = []  # blocks of one, under oracle and docs
    actions: list[np.ndarray] = []
    cache = None
    for drawn in _stream(cfg, seed, n):
        states = []
        for row, state in enumerate(drawn.states):
            if cache is not None:
                state = replace(state, cache=cache)
            block = drawn.carrying([state], slice(row, row + 1))
            demos = label_states([block], prices, scaler) if per_state else None
            action = scheme_actions(scheme, model, demos, [block], prices)
            states.append(state)
            labelled.append(demos)
            actions.append(action)
            cache = apply_caching_action(state.cache, state.task,
                                         tuple(PAIR_CACHE[action[0]].tolist()), eviction)
        carried.append(drawn.carrying(states, slice(0, len(drawn))))
    demos = Demonstrations.stack(labelled) if per_state else label_states(carried, prices,
                                                                          scaler)
    return carried, demos, np.concatenate(actions)


def run_eval(cfg: SimConfig, seed: int, policy: str, model_path: Path | None,
             episodes: int, cache_mode: str, out: Path) -> dict[str, float]:
    _check_episodes(episodes)
    prices = prices_from(cfg.scenario)
    if policy == "docs":
        if model_path is None:
            raise ValueError("--model is required for the docs policy")
        model, scaler = load_model(model_path)
        check_policy(model, cfg.scenario.num_subtasks)
    else:
        model, scaler = None, FeatureScaler.from_scenario(cfg.scenario)

    if cache_mode == "persistent":
        eviction = policy.split("-")[1] if "-" in policy \
            else cfg.train.persistent_eviction
        blocks, demos, actions = _persistent_rollout(cfg, seed, episodes, policy,
                                                     model, scaler, eviction)
    else:
        blocks = _stream(cfg, seed, episodes)
        demos = label_states(blocks, prices, scaler)
        actions = scheme_actions(policy, model, demos, blocks, prices)
    report = action_report(actions, demos, blocks, prices)

    # metric columns follow action_report's key order
    _write_csv(out / "metrics.csv", ("scheme", "cache_mode", "episodes") + tuple(report),
               [(policy, cache_mode, episodes) + tuple(report.values())])
    print(f"wrote {out / 'metrics.csv'}")
    for key, value in report.items():
        print(f"{policy} {key}: {value!r}")
    return report


def run_compare(cfg: SimConfig, seed: int, model_path: Path, episodes: int,
                out: Path) -> dict[str, dict[str, float]]:
    """Oracle, trained policy, and all six baselines on one episode stream."""
    _check_episodes(episodes)
    t0 = time.perf_counter()
    model, scaler = load_model(model_path)
    load_elapsed = time.perf_counter() - t0
    check_policy(model, cfg.scenario.num_subtasks)
    prices = prices_from(cfg.scenario)
    blocks = _stream(cfg, seed, episodes)
    label_t0 = time.perf_counter()
    demos = label_states(blocks, prices, scaler)
    label_elapsed = time.perf_counter() - label_t0

    reports = {}
    for name in _SCHEMES:
        scheme_t0 = time.perf_counter()
        actions = scheme_actions(name, model, demos, blocks, prices)
        if name == "docs":
            infer_elapsed = time.perf_counter() - scheme_t0
        reports[name] = action_report(actions, demos, blocks, prices)

    docs = reports["docs"]
    rows = []
    for name, rep in reports.items():
        reduction = ("", "") if name in ("oracle", "docs") else tuple(
            100.0 * (rep[k] - docs[k]) / rep[k]
            for k in ("mean_reward", "mean_completion_time_s"))
        rows.append((name,) + tuple(rep.values()) + reduction)
    _write_csv(out / "comparison.csv", ("scheme",) + tuple(docs)
               + ("docs_reward_reduction_pct", "docs_time_reduction_pct"), rows)

    print(f"wrote {out / 'comparison.csv'}")
    print(f"docs exact match: {docs['exact_match']:.4f}, "
          f"reward ratio vs optimal: {docs['reward_ratio_vs_opt']:.4f}")
    print(f"model load: {load_elapsed * 1e3:.1f} ms")
    print(f"oracle solve (label_states): {label_elapsed / episodes * 1e6:.1f} us/episode "
          f"(n={episodes})")
    print(f"docs inference: {infer_elapsed / episodes * 1e3:.3f} ms/episode "
          f"(n={episodes})")
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    return reports


# ---------------------------------------------------------------------------
# sweep

HIDDEN_LAYER_GRID = (1, 2, 3, 4, 5)
RAIN_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
_SWEEP_METRICS = ("exact_match", "per_bit_acc", "mean_reward", "reward_ratio_vs_opt")


def _sweep_point(cfg: SimConfig, demos: Demonstrations, seed: int,
                 hidden_layers: int, scen_override=None) -> dict[str, float]:
    scen = scen_override or cfg.scenario
    tcfg = replace(cfg.train, hidden_layers=hidden_layers,
                   max_epochs=cfg.train.sweep_epochs,
                   patience=cfg.train.sweep_patience)
    result = train_policy(demos, tcfg, seed)
    test_demos = demos.take(result.test_idx)
    test_blocks = list(episode_blocks(scen, seed, test_demos.episode_id.tolist(),
                                      make_library(scen, seed)))
    actions = docs_actions(result.model, test_demos, test_blocks)
    return action_report(actions, test_demos, test_blocks, prices_from(scen))


def run_sweep(cfg: SimConfig, kind: str, seed: int, out: Path) -> Path:
    t0 = time.perf_counter()
    rows = []
    if kind == "hidden-layers":
        demos = build_dataset(cfg.scenario, cfg.train.sweep_episodes, seed)
        for k in HIDDEN_LAYER_GRID:
            rep = _sweep_point(cfg, demos, seed, k)
            rows.append((k,) + tuple(rep[m] for m in _SWEEP_METRICS))
            print(f"hidden_layers={k}: exact_match={rep['exact_match']:.4f}")
        path = out / "sweep_hidden_layers.csv"
        _write_csv(path, ("hidden_layers",) + _SWEEP_METRICS, rows)
    elif kind == "rain":
        for lam in RAIN_GRID:
            scen = replace(cfg.scenario, rain_attenuation=lam)
            demos = build_dataset(scen, cfg.train.sweep_episodes, seed)
            rep = _sweep_point(cfg, demos, seed, cfg.train.hidden_layers,
                               scen_override=scen)
            rows.append((lam,) + tuple(rep[m] for m in _SWEEP_METRICS))
            print(f"attenuation={lam}: exact_match={rep['exact_match']:.4f}")
        path = out / "sweep_rain.csv"
        _write_csv(path, ("attenuation",) + _SWEEP_METRICS, rows)
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    print(f"wrote {path}")
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    return path


# ---------------------------------------------------------------------------
# coverage


def run_coverage(cfg: SimConfig, theta_m_deg: float | None, grid: int | None,
                 out: Path) -> None:
    """Print the pass geometry, and write coverage.csv when grid is given;
    every input is checked before anything is printed or out is created."""
    if grid is not None and grid < 1:
        raise ValueError(f"--grid must be at least 1, got {grid}")
    params = orbit_params(cfg.scenario)
    theta0 = earth_central_angle(params)
    lines = [f"max earth-central half-angle: {theta0!r} rad "
             f"({float(np.degrees(theta0))!r} deg)",
             f"relative angular velocity: {relative_angular_velocity(params)!r} rad/s",
             f"coverage window from overhead: {coverage_time(0.0, params)!r} s"]
    if theta_m_deg is not None:
        theta_m = float(np.radians(theta_m_deg))
        lines.append(f"coverage at {theta_m_deg} deg offset: "
                     f"{coverage_time(theta_m, params)!r} s")
    out = _outdir(out)
    print("\n".join(lines))
    if grid is not None:
        rows = []
        for i in range(grid + 1):
            theta_m = theta0 * i / grid
            rows.append((float(np.degrees(theta_m)), float(theta_m),
                         coverage_time(theta_m, params)))
        path = out / "coverage.csv"
        _write_csv(path, ("theta_m_deg", "theta_m_rad", "coverage_s"), rows)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, default_out: str) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--seed", type=int, default=None,
                   help=f"stream seed (default {GEN_SEED} for generation and "
                        f"training commands, {EVAL_SEED} for evaluation)")
    p.add_argument("--out", default=default_out, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satedge",
        description="Satellite edge offloading and caching simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="label an episode stream with "
                                           "exact optimal actions")
    _add_common(p, "runs/dataset")
    p.add_argument("--episodes", type=int, default=None,
                   help="override train.dataset_episodes")
    p.set_defaults(func=_cmd_gen_dataset, default_seed=GEN_SEED)

    p = sub.add_parser("train", help="fit the policy network to a dataset")
    _add_common(p, "runs/train")
    p.add_argument("--dataset", required=True, help="dataset.txt to fit")
    p.set_defaults(func=_cmd_train, default_seed=GEN_SEED)

    p = sub.add_parser("eval", help="score one policy on a fresh stream")
    _add_common(p, "runs/eval")
    p.add_argument("--policy", required=True, choices=_SCHEMES)
    p.add_argument("--model", default=None, help="model.txt (docs policy only)")
    p.add_argument("--episodes", type=int, default=None,
                   help="override train.compare_episodes")
    p.add_argument("--cache-mode", choices=("fresh", "persistent"),
                   default="fresh",
                   help="fresh redraws the cache per episode; persistent "
                        "carries it across episodes")
    p.set_defaults(func=_cmd_eval, default_seed=EVAL_SEED)

    p = sub.add_parser("compare", help="score oracle, trained policy, and all "
                                       "baselines on one stream")
    _add_common(p, "runs/compare")
    p.add_argument("--model", required=True, help="trained model.txt")
    p.add_argument("--episodes", type=int, default=None,
                   help="override train.compare_episodes")
    p.set_defaults(func=_cmd_compare, default_seed=EVAL_SEED)

    p = sub.add_parser("sweep", help="re-train across a parameter grid")
    _add_common(p, "runs/sweep")
    p.add_argument("--kind", required=True, choices=("hidden-layers", "rain"))
    p.set_defaults(func=_cmd_sweep, default_seed=GEN_SEED)

    p = sub.add_parser("coverage", help="report pass geometry for the "
                                        "configured orbit")
    _add_common(p, "runs/coverage")
    p.add_argument("--theta-m-deg", type=float, default=None,
                   help="also report the window at this initial offset")
    p.add_argument("--grid", type=int, default=None,
                   help="write coverage.csv sampled at N+1 offsets")
    p.set_defaults(func=_cmd_coverage, default_seed=GEN_SEED)
    return parser


def _config(args) -> tuple[SimConfig, int]:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else args.default_seed
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    return cfg, seed


def _setup(args) -> tuple[SimConfig, int, Path]:
    cfg, seed = _config(args)
    return cfg, seed, _outdir(args.out)


def _episodes(args, default: int) -> int:
    """--episodes if given, else the config default."""
    return default if args.episodes is None else args.episodes


def _cmd_gen_dataset(args) -> int:
    cfg, seed, out = _setup(args)
    episodes = _episodes(args, cfg.train.dataset_episodes)
    run_gen_dataset(cfg, seed, episodes, out)
    return 0


def _cmd_train(args) -> int:
    cfg, seed, out = _setup(args)
    run_train(cfg, seed, Path(args.dataset), out)
    return 0


def _cmd_eval(args) -> int:
    cfg, seed, out = _setup(args)
    episodes = _episodes(args, cfg.train.compare_episodes)
    model = Path(args.model) if args.model else None
    run_eval(cfg, seed, args.policy, model, episodes, args.cache_mode, out)
    return 0


def _cmd_compare(args) -> int:
    cfg, seed, out = _setup(args)
    episodes = _episodes(args, cfg.train.compare_episodes)
    run_compare(cfg, seed, Path(args.model), episodes, out)
    return 0


def _cmd_sweep(args) -> int:
    cfg, seed, out = _setup(args)
    run_sweep(cfg, args.kind, seed, out)
    return 0


def _cmd_coverage(args) -> int:
    cfg, _ = _config(args)  # run_coverage checks its inputs before creating --out
    run_coverage(cfg, args.theta_m_deg, args.grid, Path(args.out))
    return 0


_ERROR_CATEGORIES = (
    (ConfigError, "config"),
    (CheckpointError, "model"),
    (InfeasibleActionError, "infeasible"),
    (CoverageDomainError, "domain"),
    (OSError, "io"),
    (ValueError, "invalid"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(e for e, _ in _ERROR_CATEGORIES) as exc:
        category = next(c for etype, c in _ERROR_CATEGORIES if isinstance(exc, etype))
        print(f"error:{category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
