"""Command-line interface: subcommand smoke runs, reruns, error reporting.

Every run lands in a pytest tmp_path; budgets come from a small config
file so the whole module stays fast.
"""

import csv
import hashlib
import importlib.util
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from satedge import evaluator, neural, oracle
from satedge.caching import CacheState, apply_caching_action
from satedge.channel import LinkState
from satedge.cli import (EVAL_SEED, _persistent_rollout, main, run_compare, run_eval,
                         run_gen_dataset)
from satedge.config import default_config, load_config
from satedge.evaluator import BLOCK_STATES, ActionMatrix, EpisodeState
from satedge.neural import FeatureScaler, feature_dim, forward, init_model, save_model
from satedge.policies import BASELINE_PAIRS
from satedge.scenario import episode_blocks, make_library, prices_from
from satedge.workload import SubTask

from conftest import (feasible_of, picks_of, reference_baseline_policy,
                      reference_decode_actions, reference_label_states, states_of,
                      stream_blocks)

TINY_CONFIG = """\
# small budgets for CLI round-trip checks
dataset_episodes = 60
compare_episodes = 40
sweep_episodes = 80
sweep_epochs = 2
sweep_patience = 2
max_epochs = 4
patience = 4
hidden_layers = 1
hidden_width = 16
batch_size = 16
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_CONFIG)
    return str(path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _gen(tmp_path, tiny_cfg, name="data"):
    out = tmp_path / name
    rc = main(["gen-dataset", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    return out / "dataset.txt"


def _train(tmp_path, tiny_cfg, dataset, name="fit"):
    out = tmp_path / name
    rc = main(["train", "--config", tiny_cfg, "--dataset", str(dataset),
               "--out", str(out)])
    assert rc == 0
    return out / "model.txt"


# ---------------------------------------------------------------------------
# happy paths


def test_gen_dataset_writes_reproducible_files(tmp_path, tiny_cfg, capsys):
    first = _gen(tmp_path, tiny_cfg, "a")
    second = _gen(tmp_path, tiny_cfg, "b")
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0].startswith("#satedge-dataset v1")
    assert (first.parent / "config_used.txt").exists()
    out = capsys.readouterr().out
    assert "label density" in out and "60 episodes" in out


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inspect_dataset_script_summarises_a_dataset(tmp_path, tiny_cfg, capsys):
    module = _script("inspect_dataset")
    dataset = _gen(tmp_path, tiny_cfg)
    capsys.readouterr()
    assert module.main([str(dataset)]) == 0
    out = capsys.readouterr().out
    assert f"{dataset}: 60 episodes, 6 sub-tasks each" in out
    mix_line = next(line for line in out.splitlines() if line.startswith("category mix: "))
    shares = dict(part.split() for part in mix_line.removeprefix("category mix: ").split(", "))
    assert set(shares) <= {"upload", "download", "compute"}
    assert abs(sum(float(v) for v in shares.values()) - 1.0) <= 0.002


def test_inspect_model_script_summarises_a_checkpoint(tmp_path, capsys):
    module = _script("inspect_model")
    path = _untrained_model(tmp_path / "model.txt", 6)
    model, _ = neural.load_model(path)
    capsys.readouterr()
    assert module.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"{path}: #satedge-model v3", "dims: 54,8,12, seed: 3"]
    assert out[2].startswith("scaler: 54 features, lo 0 to 0, hi ")
    w0 = model.weights[0]
    assert out[3:] == [f"block W0 54x8: min {w0.min():.6g}, max {w0.max():.6g}, "
                       f"mean {w0.mean():.6g}",
                       "block b0 8: min 0, max 0, mean 0",
                       out[5], "block b1 12: min 0, max 0, mean 0"]
    assert out[5].startswith("block W1 8x12: ")

    # --values prints every row as repr writes it, which reads back bit for bit
    assert module.main([str(path), "--values"]) == 0
    out = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(out) if line.startswith("block W0 54x8: "))
    rows = np.array([[float(v) for v in line.strip().split(",")]
                     for line in out[head + 1:head + 55]])
    assert rows.tobytes() == w0.tobytes()


def test_train_emits_model_and_curve(tmp_path, tiny_cfg):
    dataset = _gen(tmp_path, tiny_cfg)
    model = _train(tmp_path, tiny_cfg, dataset)
    assert model.read_text().startswith("#satedge-model v3\n")
    curve = (model.parent / "train_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,val_loss"
    assert len(curve) >= 3  # epoch 0 plus at least two training epochs

    again = _train(tmp_path, tiny_cfg, dataset, "fit2")
    assert model.read_bytes() == again.read_bytes()


def test_eval_docs_policy_round_trip(tmp_path, tiny_cfg):
    dataset = _gen(tmp_path, tiny_cfg)
    model = _train(tmp_path, tiny_cfg, dataset)
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        rc = main(["eval", "--config", tiny_cfg, "--policy", "docs",
                   "--model", str(model), "--episodes", "30",
                   "--out", str(out)])
        assert rc == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]
    rows = _rows(tmp_path / "e1" / "metrics.csv")
    assert len(rows) == 1 and rows[0]["scheme"] == "docs"
    assert rows[0]["cache_mode"] == "fresh"
    assert 0.0 <= float(rows[0]["exact_match"]) <= 1.0


def test_eval_covers_oracle_and_baselines(tmp_path, tiny_cfg):
    for policy in ("oracle", "to-mrc", "go-mpc"):
        out = tmp_path / policy
        rc = main(["eval", "--config", tiny_cfg, "--policy", policy,
                   "--episodes", "25", "--out", str(out)])
        assert rc == 0
        row = _rows(out / "metrics.csv")[0]
        assert row["scheme"] == policy
    oracle_row = _rows(tmp_path / "oracle" / "metrics.csv")[0]
    assert float(oracle_row["exact_match"]) == 1.0
    assert abs(float(oracle_row["reward_ratio_vs_opt"]) - 1.0) <= 1e-9


def test_eval_persistent_cache_mode(tmp_path, tiny_cfg):
    out = tmp_path / "persist"
    rc = main(["eval", "--config", tiny_cfg, "--policy", "le-mpc",
               "--episodes", "25", "--cache-mode", "persistent",
               "--out", str(out)])
    assert rc == 0
    row = _rows(out / "metrics.csv")[0]
    assert row["cache_mode"] == "persistent"


@pytest.mark.parametrize("offload_kind, cache_kind", BASELINE_PAIRS)
def test_persistent_baseline_rollout_matches_per_state_labelling(offload_kind, cache_kind):
    # a cache of 5 % of the library evicts on carried offers, and the stream
    # spans two draw blocks, which the rollout labels once it has acted
    cfg = default_config()
    cfg = replace(cfg, scenario=replace(cfg.scenario, capacity_fraction=0.05))
    scen, n, seed = cfg.scenario, BLOCK_STATES + 4, 5
    prices, scaler = prices_from(scen), FeatureScaler.from_scenario(scen)
    blocks, demos, actions = _persistent_rollout(
        cfg, seed, n, f"{offload_kind}-{cache_kind}", None, scaler, cache_kind)
    states = states_of(blocks)
    # the reference carries the cache, labels each state alone with the
    # scalar solver and encoder, then acts on it
    cache, evicted = None, 0
    for i, drawn in enumerate(states_of(stream_blocks(scen, seed, n))):
        state = drawn if cache is None else replace(drawn, cache=cache)
        ref, = reference_label_states([state], prices, scaler)
        action = reference_baseline_policy(offload_kind, cache_kind, state, prices)
        assert states[i] == state
        assert (demos.episode_id[i], tuple(demos.labels[i])) == (i, ref.labels)
        assert demos.opt_reward[i].hex() == ref.opt_reward.hex()
        assert demos.features[i].tobytes() == ref.features.tobytes()
        assert actions[i].tolist() == picks_of(action)
        cache = apply_caching_action(state.cache, state.task, action.cache, cache_kind)
        evicted += any(a > b for a, b in zip(state.cache.placement, cache.placement))
    assert len(demos) == len(actions) == n
    assert evicted > 0


@pytest.mark.parametrize("scheme", ["oracle", "docs"])
def test_persistent_labelled_rollout_matches_per_state_labelling(scheme):
    # oracle and docs act on each carried state's own labels or features, so
    # the rollout labels it as a block of one and stacks the blocks in order
    cfg = default_config()
    cfg = replace(cfg, scenario=replace(cfg.scenario, capacity_fraction=0.05))
    scen, n, seed, v = cfg.scenario, BLOCK_STATES + 4, 5, cfg.scenario.num_subtasks
    prices, scaler = prices_from(scen), FeatureScaler.from_scenario(scen)
    eviction = cfg.train.persistent_eviction
    # untrained, so its outputs straddle 0.5 and some cache bits come on
    model = init_model((feature_dim(v), 16, 2 * v), seed=11) if scheme == "docs" else None
    blocks, demos, actions = _persistent_rollout(cfg, seed, n, scheme, model, scaler,
                                                 eviction)
    states = states_of(blocks)
    assert len(demos) == len(actions) == n
    cache = None
    for i, (drawn, demo) in enumerate(zip(states_of(stream_blocks(scen, seed, n)), demos)):
        state = drawn if cache is None else replace(drawn, cache=cache)
        ref, = reference_label_states([state], prices, scaler)
        action = (ActionMatrix.from_bits(ref.labels) if scheme == "oracle" else
                  reference_decode_actions(forward(model, ref.features[None])[0], state))
        assert states[i] == state
        assert (demo.episode_id, demo.labels) == (i, ref.labels)
        assert demo.opt_reward.hex() == ref.opt_reward.hex()
        assert demo.features.tobytes() == ref.features.tobytes()
        assert actions[i].tolist() == picks_of(action)
        cache = apply_caching_action(state.cache, state.task, action.cache, eviction)


def test_compare_ranks_all_schemes(tmp_path, tiny_cfg, capsys):
    dataset = _gen(tmp_path, tiny_cfg)
    model = _train(tmp_path, tiny_cfg, dataset)
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", tiny_cfg, "--model", str(model),
               "--episodes", "30", "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "comparison.csv")
    schemes = [r["scheme"] for r in rows]
    assert schemes[:2] == ["oracle", "docs"]
    assert set(schemes[2:]) == {"to-mrc", "le-mrc", "to-mpc", "le-mpc",
                                "go-mrc", "go-mpc"}
    for r in rows:
        if r["scheme"] in ("oracle", "docs"):
            assert r["docs_reward_reduction_pct"] == ""
            assert r["docs_time_reduction_pct"] == ""
        else:
            float(r["docs_reward_reduction_pct"])
            float(r["docs_time_reduction_pct"])
    assert "ms/episode" in capsys.readouterr().out

    again = tmp_path / "cmp2"
    rc = main(["compare", "--config", tiny_cfg, "--model", str(model),
               "--episodes", "30", "--out", str(again)])
    assert rc == 0
    assert (out / "comparison.csv").read_bytes() == \
        (again / "comparison.csv").read_bytes()


def test_sweep_hidden_layers_grid(tmp_path, tiny_cfg):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", tiny_cfg, "--kind", "hidden-layers",
               "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "sweep_hidden_layers.csv")
    assert [r["hidden_layers"] for r in rows] == ["1", "2", "3", "4", "5"]
    for r in rows:
        assert 0.0 <= float(r["exact_match"]) <= 1.0


def test_sweep_rain_grid(tmp_path, tiny_cfg):
    out = tmp_path / "rain"
    rc = main(["sweep", "--config", tiny_cfg, "--kind", "rain",
               "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "sweep_rain.csv")
    assert [r["attenuation"] for r in rows] == \
        ["0.5", "0.6", "0.7", "0.8", "0.9", "1.0"]


def test_coverage_report_and_grid(tmp_path, capsys):
    out = tmp_path / "cov"
    rc = main(["coverage", "--grid", "10", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "half-angle" in text
    rows = _rows(out / "coverage.csv")
    assert len(rows) == 11  # both endpoints included
    assert float(rows[-1]["coverage_s"]) == 0.0  # grid ends at the cap

    again = tmp_path / "cov2"
    assert main(["coverage", "--grid", "10", "--out", str(again)]) == 0
    assert (out / "coverage.csv").read_bytes() == \
        (again / "coverage.csv").read_bytes()


def test_coverage_single_point(tmp_path, capsys):
    rc = main(["coverage", "--theta-m-deg", "5.0",
               "--out", str(tmp_path / "c")])
    assert rc == 0
    assert "coverage" in capsys.readouterr().out


def test_config_aliases_match_field_names(tmp_path):
    alias = tmp_path / "alias.txt"
    alias.write_text("dataset_episodes = 20\nB_vs_hz = 2.5e6\n"
                     "B_sg_hz = 3.5e6\nlambda = 0.7\nd_vs_s = 0.02\n"
                     "d_sg_s = 0.25\n")
    spelled = tmp_path / "spelled.txt"
    spelled.write_text("dataset_episodes = 20\nbandwidth_fh_hz = 2.5e6\n"
                       "bandwidth_bh_hz = 3.5e6\nrain_attenuation = 0.7\n"
                       "prop_vs_s = 0.02\nprop_sg_s = 0.25\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-dataset", "--config", str(alias), "--out", str(a)]) == 0
    assert main(["gen-dataset", "--config", str(spelled), "--out", str(b)]) == 0
    assert (a / "dataset.txt").read_bytes() == (b / "dataset.txt").read_bytes()


# SHA-256 of dataset.txt from `gen-dataset --seed 42` at (num_subtasks,
# episodes). A solver or stream change that moves any byte fails here and
# needs a dataset header version bump.
PINNED_DATASET_SHA256 = {
    (6, 200): "4301b167be5fdfe3afbf3c25d45692cfd3ef4acdc5f5f18a6fe6ba7233be8730",
    (6, 600): "a49748c001be833784fdda1cd5d2e6011ce2856b19da73928c1142f336fba60e",
    (9, 50): "597a2a45c0d37c560d7956ea25ffd7248c9ae33237ba47e07cc576c86e6c78a3",
}


@pytest.mark.parametrize("num_subtasks,episodes", sorted(PINNED_DATASET_SHA256))
def test_gen_dataset_bytes_are_pinned(tmp_path, num_subtasks, episodes):
    config = tmp_path / "cfg.txt"
    config.write_text(f"num_subtasks = {num_subtasks}\n")
    out = tmp_path / "data"
    assert main(["gen-dataset", "--config", str(config), "--seed", "42",
                 "--episodes", str(episodes), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "dataset.txt").read_bytes()).hexdigest()
    assert digest == PINNED_DATASET_SHA256[(num_subtasks, episodes)]


def test_orbit_gen_dataset_bytes_are_pinned(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("coverage_mode = orbit\n")
    out = tmp_path / "data"
    assert main(["gen-dataset", "--config", str(config), "--seed", "42",
                 "--episodes", "200", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "dataset.txt").read_bytes()).hexdigest()
    assert digest == "74ff965457b80661026665b7f9215c5aabc2f7cc4d755001d59bc5a8ae15aba6"


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_references():
    """REFERENCE_SHA256 of the benchmark's label workloads, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCE_SHA256


@pytest.mark.parametrize("workload,episodes,num_subtasks",
                         [("label", 250, 6), ("label-wide", 60, 9)])
def test_gen_dataset_matches_benchmark_reference(tmp_path, workload, episodes,
                                                 num_subtasks):
    cfg = default_config()
    cfg = replace(cfg, scenario=replace(cfg.scenario, num_subtasks=num_subtasks))
    path = run_gen_dataset(cfg, 42, episodes, tmp_path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _benchmark_references()[workload]


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_parity_listing_matches_the_committed_one(tmp_path, capsys):
    """scripts/artifact_digests.py under scripts/parity_tiny.txt,
    scripts/parity_evict.txt and scripts/parity_orbit.txt, each diffed
    against its committed listing: gen-dataset, train, compare, fresh and
    persistent eval of all eight schemes and both sweeps, every artifact byte."""
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  SCRIPTS / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ("parity_tiny", "parity_evict", "parity_orbit"):
        capsys.readouterr()
        assert module.main(["--config", str(SCRIPTS / f"{name}.txt"),
                            "--out", str(tmp_path / name)]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert listing == (SCRIPTS / f"{name}.sha256").read_text().splitlines(), name
        assert len(listing) == 23


def test_orbit_parity_config_restricts_some_evaluation_episodes():
    """Under scripts/parity_orbit.txt some, not all, of the episodes compare
    and eval score hold a sub-task whose return leg misses its window, so
    its listing also pins the pairs the window prunes."""
    cfg = load_config(SCRIPTS / "parity_orbit.txt")
    scen = cfg.scenario
    # a pattern out of the window that allows fewer pairs than the one within
    restricted = [p for p in range(0, len(evaluator.FEASIBLE), 2)
                  if evaluator.FEASIBLE[p] != evaluator.FEASIBLE[p + 1]]
    blocks = episode_blocks(scen, EVAL_SEED, range(cfg.train.compare_episodes),
                            make_library(scen, EVAL_SEED))
    held = [bool(np.isin(row, restricted).any()) for block in blocks for row in block.pattern]
    assert 0 < sum(held) < len(held)


def test_reproduce_results_script_writes_the_parity_artifacts(tmp_path, capsys):
    """scripts/reproduce_results.py runs every stage through the command line,
    so under scripts/parity_tiny.txt its artifacts have the digests the
    committed listing gives the same artifacts."""
    pinned = {path: digest for digest, path in
              (line.split("  ") for line in
               (SCRIPTS / "parity_tiny.sha256").read_text().splitlines())}
    out = tmp_path / "repro"
    assert _script("reproduce_results").main(
        ["--config", str(SCRIPTS / "parity_tiny.txt"), "--out", str(out)]) == 0
    written = {  # its path: the same artifact's path in the listing
        "dataset/dataset.txt": "dataset/dataset.txt",
        "fit/model.txt": "train/model.txt",
        "compare/comparison.csv": "compare/comparison.csv",
        "sweep_depth/sweep_hidden_layers.csv": "sweep/hidden-layers/sweep_hidden_layers.csv",
        "sweep_rain/sweep_rain.csv": "sweep/rain/sweep_rain.csv",
    }
    assert {path: hashlib.sha256((out / path).read_bytes()).hexdigest() for path in written} \
        == {path: pinned[listed] for path, listed in written.items()}


# SHA-256 of dataset.txt from `gen-dataset` under TINY_CONFIG (60 episodes,
# seed 42) where coverage binds or the chain is long: orbit coverage at
# 9 sub-tasks, and a 0.16 s fixed window that restricts many feasible sets.
PINNED_TINY_DATASET_SHA256 = {
    "coverage_mode = orbit\nnum_subtasks = 9\n":
        "e29309c443a55e9697abb4988f5ee8f30c23c30b7dcbb046bcc238068984a144",
    "coverage_s = 0.16\n":
        "d69483a90239eb12a6cc046f81aeb0e0f38c0c63d537963e57fc99e521c00fd6",
}


@pytest.mark.parametrize("extra", sorted(PINNED_TINY_DATASET_SHA256))
def test_tiny_gen_dataset_bytes_are_pinned(tmp_path, extra):
    config = tmp_path / "cfg.txt"
    config.write_text(TINY_CONFIG + extra)
    dataset = _gen(tmp_path, str(config))
    digest = hashlib.sha256(dataset.read_bytes()).hexdigest()
    assert digest == PINNED_TINY_DATASET_SHA256[extra]


# SHA-256 of metrics.csv from `eval --episodes 25` under TINY_CONFIG at
# (policy, cache mode). Baselines replay outputs through cache eviction,
# and persistent mode carries the evicted cache into the next episode, so
# a change to either eviction policy moves bytes here.
PINNED_METRICS_SHA256 = {
    ("go-mpc", "fresh"):
        "c1d4dadb49b252a400a31bb4580c186c44e289178ac5ba3b30acdcc5d9facf52",
    ("go-mpc", "persistent"):
        "9c255ea6b8f8e8c5613772e7f51d5d02110bb232037700de32140bad5e5e21ec",
    ("to-mrc", "persistent"):
        "cbc4d0a2578e5679fbe77d9503f5f2bf1136a5554dc825632b9b1ce4340eee07",
    ("le-mpc", "persistent"):
        "4e1f9c201b6f43e663423e76b20742627fbcf786036a63465795e73b4b58b325",
}


@pytest.mark.parametrize("policy,cache_mode", sorted(PINNED_METRICS_SHA256))
def test_eval_metrics_bytes_are_pinned(tmp_path, tiny_cfg, policy, cache_mode):
    out = tmp_path / "eval"
    assert main(["eval", "--config", tiny_cfg, "--policy", policy,
                 "--episodes", "25", "--cache-mode", cache_mode,
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert digest == PINNED_METRICS_SHA256[(policy, cache_mode)]


# SHA-256 of the train and compare artifacts under TINY_CONFIG with the
# default seeds. train_curve.csv and comparison.csv are unchanged since
# model v1; comparison.csv scores the weights compare loads, so each
# checkpoint version has given back the same bits. model.txt is the v3
# file, so a change to training or to the checkpoint format moves bytes here.
PINNED_TRAIN_SHA256 = {
    "train_curve.csv":
        "3e7e5dd3d7d2f2e9f64b53ee0ca60c57385eda2d787f14ccc8eafc3c36fc11b4",
    "model.txt":
        "bd26c17968794c1748de6675443e3d0dc30a857e99e6daf4e64104ae2f53ee3f",
    "comparison.csv":
        "44a18102d745010e80e37495c3e8130837cc06e71d7aeb6d0bbd93a812fb6c08",
}


def test_train_and_compare_bytes_are_pinned(tmp_path, tiny_cfg):
    model = _train(tmp_path, tiny_cfg, _gen(tmp_path, tiny_cfg))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", tiny_cfg, "--model", str(model),
                 "--out", str(out)]) == 0
    paths = {"train_curve.csv": model.parent / "train_curve.csv",
             "model.txt": model, "comparison.csv": out / "comparison.csv"}
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == PINNED_TRAIN_SHA256


# SHA-256 of comparison.csv under TINY_CONFIG with a 0.16 s coverage
# window, about the median return leg, so coverage expiry forces the cache
# bit of many sub-tasks and projection, retention and the solver all meet
# restricted feasible sets.
SHORT_COVERAGE_COMPARISON_SHA256 = (
    "a36634735200323ffda855ab9742731e8f3ec9baafa942afb6668b49d869b7e0")


def test_short_coverage_compare_bytes_are_pinned(tmp_path):
    config = tmp_path / "short.txt"
    config.write_text(TINY_CONFIG + "coverage_s = 0.16\n")
    cfg = load_config(config)
    forced = [all(ch for _, ch in feas)
              for state in states_of(stream_blocks(cfg.scenario, EVAL_SEED,
                                                   cfg.train.compare_episodes))
              for feas in feasible_of(state)]
    assert any(forced)
    model = _train(tmp_path, str(config), _gen(tmp_path, str(config)))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config), "--model", str(model),
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
    assert digest == SHORT_COVERAGE_COMPARISON_SHA256


def test_artifact_digests_script_lists_every_artifact(tmp_path, tiny_cfg, capsys):
    module = _script("artifact_digests")
    listings = []
    for name in ("a", "b"):
        capsys.readouterr()
        assert module.main(["--config", tiny_cfg, "--out", str(tmp_path / name)]) == 0
        listings.append(capsys.readouterr().out)
    assert listings[0] == listings[1]
    digests = {path: digest for digest, path in
               (line.split("  ") for line in listings[0].splitlines())}
    evals = [f"eval/{scheme}-{mode}/metrics.csv" for scheme in module.SCHEMES
             for mode in ("fresh", "persistent")]
    assert len(evals) == 16
    assert sorted(digests) == sorted(
        ["dataset/dataset.txt", "dataset/config_used.txt", "train/model.txt",
         "train/train_curve.csv", "compare/comparison.csv",
         "sweep/hidden-layers/sweep_hidden_layers.csv", "sweep/rain/sweep_rain.csv"]
        + evals)
    # the default seeds reproduce the pinned train and compare artifacts
    assert {name: digests[path] for name, path in (
        ("train_curve.csv", "train/train_curve.csv"), ("model.txt", "train/model.txt"),
        ("comparison.csv", "compare/comparison.csv"))} == PINNED_TRAIN_SHA256
    assert module.main(["--config", tiny_cfg, "--out", str(tmp_path / "a")]) == 2


def _untrained_model(path, num_subtasks):
    """A checkpoint shaped for num_subtasks under the default scenario."""
    scen = replace(default_config().scenario, num_subtasks=num_subtasks)
    model = init_model((feature_dim(num_subtasks), 8, 2 * num_subtasks), seed=3)
    save_model(path, model, FeatureScaler.from_scenario(scen))
    return path


def _count_calls(monkeypatch, func):
    """Record the arguments of each call of func through every satedge module
    name bound to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "satedge":
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_tables(monkeypatch):
    """The number of states of each evaluator.Tables block built, from
    objects or from a draw's arrays."""
    sizes = []
    init, drawn = evaluator.Tables.__init__, evaluator.Tables.drawn

    def counted(self, states, *args):
        sizes.append(len(states))
        init(self, states, *args)

    def counted_drawn(tasks, links, *args):
        sizes.append(len(links))
        return drawn(tasks, links, *args)

    monkeypatch.setattr(evaluator.Tables, "__init__", counted)
    monkeypatch.setattr(evaluator.Tables, "drawn", counted_drawn)
    return sizes


@pytest.mark.parametrize("argv", [
    ["eval", "--policy", "oracle"],
    ["eval", "--policy", "oracle", "--cache-mode", "persistent"],
    ["eval", "--policy", "docs"],
    ["eval", "--policy", "docs", "--cache-mode", "persistent"],
    ["compare"],
    ["eval", "--policy", "go-mrc", "--cache-mode", "persistent"],
])
def test_scoring_solves_and_encodes_each_episode_once(tmp_path, monkeypatch, argv):
    # fresh streams are labelled in blocks; a persistent oracle or docs
    # rollout labels each state as a block of one, since its action, read
    # from the labels, sets the next state's cache; a baseline acts on the
    # states alone, so its rollout labels them in one block at the end
    per_state = "persistent" in argv and argv[2] in ("oracle", "docs")
    model = _untrained_model(tmp_path / "model.txt", 6)
    if "oracle" not in argv:
        argv = argv + ["--model", str(model)]
    solves = _count_calls(monkeypatch, oracle.solve_optimal)
    encodes = _count_calls(monkeypatch, neural.encode_state)
    block_solves = _count_calls(monkeypatch, oracle.block_argmin)
    block_encodes = _count_calls(monkeypatch, neural.encode_states)
    assert main(argv + ["--episodes", "7", "--out", str(tmp_path / "o")]) == 0
    solved_in_blocks = [len(costs) for costs, in block_solves]
    encoded_in_blocks = [sum(map(len, blocks)) for blocks, _ in block_encodes]
    assert (len(solves), len(encodes)) == (0, 0)
    assert solved_in_blocks == encoded_in_blocks == ([1] * 7 if per_state else [7])


def test_compare_prints_model_load_and_solver_timings(tmp_path, capsys):
    # next to the policy's inference time, on stdout only: the checkpoint
    # load, and the solver's label_states cost per episode
    model = _untrained_model(tmp_path / "model.txt", 6)
    assert main(["compare", "--model", str(model), "--episodes", "7",
                 "--out", str(tmp_path / "o")]) == 0
    timed = [line for line in capsys.readouterr().out.splitlines() if line.startswith(
        ("model load: ", "oracle solve (label_states): ", "docs inference: "))]
    assert [line.split(": ")[0] for line in timed] == \
        ["model load", "oracle solve (label_states)", "docs inference"]
    assert re.fullmatch(r"model load: \d+\.\d ms", timed[0])
    assert re.fullmatch(r"oracle solve \(label_states\): \d+\.\d us/episode \(n=7\)",
                        timed[1])
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["comparison.csv"]


@pytest.mark.parametrize("argv", [
    ["eval", "--policy", "oracle"],
    ["eval", "--policy", "docs", "--cache-mode", "persistent"],
    ["eval", "--policy", "go-mpc"],
    ["eval", "--policy", "go-mrc", "--cache-mode", "persistent"],
    ["eval", "--policy", "le-mpc", "--cache-mode", "persistent"],
    ["compare"],
])
def test_scoring_derives_each_state_view_once(tmp_path, monkeypatch, argv):
    # N = 7 episodes: one Tables block holds every state's times and feasible
    # sets (a persistent rollout's carried states share their draw's row),
    # and it is priced once, whatever number of schemes reads the costs
    model = _untrained_model(tmp_path / "model.txt", 6)
    tables = _count_tables(monkeypatch)
    pricings = _count_calls(monkeypatch, evaluator._pair_cost)
    feasible = _count_calls(monkeypatch, evaluator.feasible_actions)
    assert main(argv + ["--model", str(model), "--episodes", "7",
                        "--out", str(tmp_path / "o")]) == 0
    assert tables == [7]
    assert len(pricings) == 1
    assert feasible == []


def _count_objects(monkeypatch):
    """The number of EpisodeState, SubTask, LinkState and CacheState objects
    each class's __init__ builds, by class name."""
    built = dict.fromkeys(("EpisodeState", "SubTask", "LinkState", "CacheState"), 0)
    for cls in (EpisodeState, SubTask, LinkState, CacheState):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_gen_dataset_builds_no_episode_object(tmp_path, monkeypatch):
    # 300 episodes, two blocks, each drawn as arrays and labelled from them
    built = _count_objects(monkeypatch)
    tables = _count_tables(monkeypatch)
    run_gen_dataset(default_config(), 42, 300, tmp_path)
    assert tables == [BLOCK_STATES, 300 - BLOCK_STATES]
    assert built == dict.fromkeys(built, 0)


def test_compare_builds_no_episode_object(tmp_path, monkeypatch):
    # 300 episodes, two blocks: six baselines replay two cache kinds on the
    # blocks' cache arrays, and every scheme is scored from the blocks
    model = _untrained_model(tmp_path / "model.txt", 6)
    built = _count_objects(monkeypatch)
    tables = _count_tables(monkeypatch)
    run_compare(default_config(), EVAL_SEED, model, 300, tmp_path)
    assert tables == [BLOCK_STATES, 300 - BLOCK_STATES]
    assert built == dict.fromkeys(built, 0)


@pytest.mark.parametrize("argv, validations", [
    (["compare"], 8 * 7),
    (["eval", "--policy", "go-mpc", "--cache-mode", "persistent"], 7),
])
def test_scoring_validates_each_action_once(tmp_path, monkeypatch, argv, validations):
    # N = 7 episodes; reward and completion time come from one validation of
    # each scheme's block of actions, a persistent rollout's once at the end
    model = _untrained_model(tmp_path / "model.txt", 6)
    calls = _count_calls(monkeypatch, evaluator._check_feasible)
    assert main(argv + ["--model", str(model), "--episodes", "7",
                        "--out", str(tmp_path / "o")]) == 0
    assert sum(len(actions) for _, actions, _ in calls) == validations


@pytest.mark.parametrize("command", [
    ["eval", "--policy", "docs"],
    ["compare"],
])
def test_model_for_other_chain_length_reports_model_error(tmp_path, capsys, command):
    model = _untrained_model(tmp_path / "model.txt", 4)
    _expect_error(capsys, command + ["--model", str(model), "--episodes", "5",
                                     "--out", str(tmp_path / "o")], "model")


def test_gen_dataset_accepts_long_chains(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("num_subtasks = 12\n")
    out = tmp_path / "data"
    assert main(["gen-dataset", "--config", str(config), "--episodes", "20",
                 "--out", str(out)]) == 0
    lines = (out / "dataset.txt").read_text().splitlines()
    assert "subtasks=12" in lines[0] and len(lines) == 21


# ---------------------------------------------------------------------------
# failure reporting


def _expect_error(capsys, argv, category):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error:{category}:"), err


@pytest.mark.parametrize("line", ["earth_radius_km = 6.371e303", "altitude_km = 1e120"])
def test_orbit_radius_whose_cube_overflows_reports_config_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(line + "\n")
    _expect_error(capsys, ["gen-dataset", "--config", str(bad), "--episodes", "3",
                           "--out", str(tmp_path / "o")], "config")
    assert not (tmp_path / "o").exists()


def test_reward_sum_that_overflows_reports_invalid_and_writes_nothing(tmp_path, capsys):
    # one le-mrc episode costs about 4.8e307, finite, but 24 of them sum past
    # the float range
    bad = tmp_path / "bad.txt"
    bad.write_text("bandwidth_fh_hz = 2e-24\nbandwidth_bh_hz = 0.002\n"
                   "cpu_rate_hz = 1e-290\nprice_cpl = 4.08e7\n")
    _expect_error(capsys, ["eval", "--config", str(bad), "--policy", "le-mrc",
                           "--episodes", "24", "--out", str(tmp_path / "o")], "invalid")
    assert not (tmp_path / "o" / "metrics.csv").exists()


def test_unknown_config_key_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("no_such_knob = 3\n")
    _expect_error(capsys, ["coverage", "--config", str(bad),
                           "--out", str(tmp_path / "o")], "config")


def test_invalid_mix_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("mix_upload = 0.9\nmix_download = 0.9\nmix_compute = 0.9\n")
    _expect_error(capsys, ["coverage", "--config", str(bad),
                           "--out", str(tmp_path / "o")], "config")


def test_missing_dataset_reports_io_error(tmp_path, capsys):
    _expect_error(capsys, ["train", "--dataset", str(tmp_path / "nope.txt"),
                           "--out", str(tmp_path / "o")], "io")


def test_corrupt_model_reports_model_error(tmp_path, capsys):
    junk = tmp_path / "model.txt"
    junk.write_text("not a checkpoint\n")
    _expect_error(capsys, ["eval", "--policy", "docs", "--model", str(junk),
                           "--episodes", "5", "--out", str(tmp_path / "o")],
                  "model")


def test_v1_model_reports_model_error(tmp_path, tiny_cfg, capsys):
    model = _train(tmp_path, tiny_cfg, _gen(tmp_path, tiny_cfg))
    lines = model.read_text().splitlines()
    v1 = tmp_path / "v1.txt"
    v1.write_text("\n".join(["#satedge-model v1"] + lines[1:]) + "\n")
    _expect_error(capsys, ["eval", "--config", tiny_cfg, "--policy", "docs",
                           "--model", str(v1), "--episodes", "5",
                           "--out", str(tmp_path / "o")], "model")


# a config whose episode budgets differ from every default
BUDGET_CONFIG = "dataset_episodes = 17\ncompare_episodes = 9\n"


@pytest.mark.parametrize("command,episodes", [
    ("gen-dataset", "0"),
    ("eval", "0"),
    ("eval", "-3"),
    ("compare", "0"),
])
def test_episodes_below_one_report_invalid(tmp_path, capsys, command, episodes):
    config = tmp_path / "cfg.txt"
    config.write_text(BUDGET_CONFIG)
    argv = [command, "--config", str(config), "--episodes", episodes,
            "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--policy", "to-mrc", "--cache-mode", "persistent"]
    if command == "compare":
        argv += ["--model", str(tmp_path / "never-read.txt")]
    _expect_error(capsys, argv, "invalid")
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("command", ["gen-dataset", "eval", "compare", "sweep", "coverage"])
def test_negative_seed_reports_invalid_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "o"
    argv = [command, "--seed", "-1", "--out", str(out)]
    if command == "eval":
        argv += ["--policy", "oracle"]
    if command == "compare":
        argv += ["--model", str(tmp_path / "never-read.txt")]
    if command == "sweep":
        argv += ["--kind", "rain"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:invalid:") and "--seed" in err, err
    assert not out.exists()


@pytest.mark.parametrize("stage", [
    lambda cfg, out: run_gen_dataset(cfg, 1, 0, out),
    lambda cfg, out: run_eval(cfg, 1, "to-mrc", None, 0, "fresh", out),
    lambda cfg, out: run_eval(cfg, 1, "oracle", None, 0, "persistent", out),
    lambda cfg, out: run_compare(cfg, 1, Path("never-read.txt"), 0, out),
], ids=["gen-dataset", "eval-fresh", "eval-persistent", "compare"])
def test_stage_functions_reject_zero_episodes(tmp_path, stage):
    out = tmp_path / "o"
    out.mkdir()
    with pytest.raises(ValueError, match="episodes"):
        stage(default_config(), out)
    assert not any(out.iterdir())


def test_episodes_default_comes_from_config(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(BUDGET_CONFIG)
    out = tmp_path / "data"
    assert main(["gen-dataset", "--config", str(config), "--out", str(out)]) == 0
    assert len((out / "dataset.txt").read_text().splitlines()) == 1 + 17
    assert main(["eval", "--config", str(config), "--policy", "oracle",
                 "--out", str(tmp_path / "ev")]) == 0
    assert _rows(tmp_path / "ev" / "metrics.csv")[0]["episodes"] == "9"


def test_docs_without_model_reports_invalid(tmp_path, capsys):
    _expect_error(capsys, ["eval", "--policy", "docs", "--episodes", "5",
                           "--out", str(tmp_path / "o")], "invalid")


def test_coverage_point_beyond_cap_reports_domain(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["coverage", "--theta-m-deg", "30.0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:domain:"), captured.err
    # checked before any report line is printed or --out is created
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_coverage_grid_below_one_reports_invalid_before_any_output(tmp_path, capsys, grid):
    out = tmp_path / "o"
    assert main(["coverage", "--grid", grid, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:invalid:") and "--grid" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_dataset_config_hash_mismatch(tmp_path, tiny_cfg, capsys):
    dataset = _gen(tmp_path, tiny_cfg)
    changed = tmp_path / "changed.txt"
    changed.write_text(TINY_CONFIG + "size_max_bytes = 400e3\n")
    rc = main(["train", "--config", str(changed), "--dataset", str(dataset),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:config:")
    assert "different scenario config" in err


def test_unknown_policy_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--policy", "psychic", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
