"""Imitation-learning loop: splits, convergence, early stopping, reports."""

import dataclasses

import numpy as np
import pytest

from satedge.config import TrainConfig, default_config
from satedge.dil import (
    action_report,
    baseline_actions,
    docs_actions,
    oracle_actions,
    split_indices,
    train_policy,
)
from satedge.neural import cross_entropy, decode_picks, forward
from satedge.oracle import Demonstrations, build_dataset
from satedge.scenario import episode_blocks, make_library, prices_from


def _blocks(scen, demos, seed=11):
    """The drawn blocks of the episodes demos holds."""
    library = make_library(scen, seed)
    return list(episode_blocks(scen, seed, demos.episode_id.tolist(), library))


def _demos_and_blocks(n, seed=11):
    scen = default_config().scenario
    demos = build_dataset(scen, n, seed)
    return scen, demos, _blocks(scen, demos, seed)


def _tiny_train_cfg(**overrides):
    base = dataclasses.replace(
        default_config().train,
        hidden_layers=2, hidden_width=32, batch_size=32,
        max_epochs=40, patience=40)
    return dataclasses.replace(base, **overrides)


# ---------------------------------------------------------------------------
# splits


def test_split_indices_partition_everything():
    rng = np.random.default_rng(0)
    train, val, test = split_indices(100, 0.8, 0.1, rng)
    assert len(train) == 80 and len(val) == 10 and len(test) == 10
    merged = np.sort(np.concatenate([train, val, test]))
    assert np.array_equal(merged, np.arange(100))


def test_split_indices_deterministic_per_rng_seed():
    a = split_indices(50, 0.6, 0.2, np.random.default_rng(4))
    b = split_indices(50, 0.6, 0.2, np.random.default_rng(4))
    c = split_indices(50, 0.6, 0.2, np.random.default_rng(5))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_indices_reject_empty_slices():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        split_indices(3, 0.9, 0.1, rng)  # no test items left
    with pytest.raises(ValueError):
        split_indices(10, 0.01, 0.5, rng)  # zero train items


# ---------------------------------------------------------------------------
# training loop


def test_training_overfits_small_dataset():
    _, demos, _ = _demos_and_blocks(200)
    cfg = _tiny_train_cfg(max_epochs=150, patience=150, learning_rate=0.003)
    result = train_policy(demos, cfg, seed=0)
    x = demos.features[result.train_idx]
    y = demos.labels[result.train_idx].astype(float)
    final = result.curve[-1][1]
    assert final < 0.05, f"train loss stuck at {final}"
    # and the quoted curve matches a recomputation on the raw arrays
    # for the best snapshot that came back
    val_x = demos.features[result.val_idx]
    val_y = demos.labels[result.val_idx].astype(float)
    best_val = cross_entropy(forward(result.model, val_x), val_y)
    assert best_val == min(v for _, _, v in result.curve)
    assert y.shape[0] == len(result.train_idx) and x.shape[0] == y.shape[0]


def test_training_memorizes_single_sample():
    _, demos, _ = _demos_and_blocks(10)
    cfg = _tiny_train_cfg(train_frac=0.1, val_frac=0.1, hidden_layers=1,
                          hidden_width=16, batch_size=1, max_epochs=900,
                          patience=900, learning_rate=0.01)
    result = train_policy(demos, cfg, seed=3)
    assert result.curve[-1][1] < 1e-3


def test_training_is_reproducible():
    _, demos, _ = _demos_and_blocks(120)
    cfg = _tiny_train_cfg(max_epochs=12, patience=12)
    a = train_policy(demos, cfg, seed=7)
    b = train_policy(demos, cfg, seed=7)
    assert a.curve == b.curve
    assert a.best_epoch == b.best_epoch
    for wa, wb in zip(a.model.weights + a.model.biases,
                      b.model.weights + b.model.biases):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)


def test_curve_starts_before_any_update_and_best_never_worse():
    _, demos, _ = _demos_and_blocks(150)
    cfg = _tiny_train_cfg(max_epochs=20, patience=20)
    result = train_policy(demos, cfg, seed=1)
    epochs = [e for e, _, _ in result.curve]
    assert epochs[0] == 0 and epochs == list(range(len(epochs)))
    val0 = result.curve[0][2]
    best_val = min(v for _, _, v in result.curve)
    assert best_val <= val0
    assert result.curve[result.best_epoch][2] == best_val


def test_early_stopping_caps_epochs_after_plateau():
    _, demos, _ = _demos_and_blocks(150)
    cfg = _tiny_train_cfg(max_epochs=200, patience=3, learning_rate=0.05)
    result = train_policy(demos, cfg, seed=2)
    last_epoch = result.curve[-1][0]
    assert last_epoch < 200
    assert last_epoch - result.best_epoch >= 3


def test_non_finite_loss_aborts_with_diagnostics():
    bad = Demonstrations(episode_id=np.arange(12), features=np.full((12, 8), np.nan),
                         labels=np.tile([0, 1], (12, 1)), opt_reward=np.ones(12))
    cfg = _tiny_train_cfg(max_epochs=5, patience=5, hidden_layers=1,
                          hidden_width=4, train_frac=0.5, val_frac=0.25)
    with pytest.raises(ValueError, match="non-finite"):
        train_policy(bad, cfg, seed=0)


def test_empty_demo_list_rejected():
    with pytest.raises(ValueError, match="empty"):
        train_policy(Demonstrations(np.zeros(0, np.intp), np.zeros((0, 8)),
                                    np.zeros((0, 2), np.intp), np.zeros(0)),
                     _tiny_train_cfg(), seed=0)


# ---------------------------------------------------------------------------
# reports


def test_action_report_oracle_identity(prices):
    _, demos, blocks = _demos_and_blocks(60)
    report = action_report(oracle_actions(demos), demos, blocks, prices)
    assert report["exact_match"] == 1.0
    assert report["per_bit_acc"] == 1.0
    assert abs(report["reward_ratio_vs_opt"] - 1.0) <= 1e-9
    assert report["mean_completion_time_s"] > 0.0


def test_action_report_counts_partial_matches(prices):
    _, demos, blocks = _demos_and_blocks(40)
    acts = baseline_actions("to", "mrc", blocks, prices)
    report = action_report(acts, demos, blocks, prices)
    assert 0.0 <= report["exact_match"] <= 1.0
    assert 0.0 <= report["per_bit_acc"] <= 1.0
    assert report["reward_ratio_vs_opt"] >= 1.0 - 1e-9


def test_action_report_rejects_misaligned_lists(prices):
    _, demos, blocks = _demos_and_blocks(10)
    acts = oracle_actions(demos)
    with pytest.raises(ValueError):
        action_report(acts[:-1], demos, blocks, prices)
    with pytest.raises(ValueError):
        action_report(acts, demos.take(slice(-1)), blocks, prices)


@pytest.mark.parametrize("width", [1, 11, 13])
def test_action_report_rejects_labels_of_another_width(prices, width):
    # one label bit would broadcast against every bit of its action
    _, demos, blocks = _demos_and_blocks(10)
    acts = oracle_actions(demos)
    demos = dataclasses.replace(demos, labels=np.repeat(demos.labels[:, :1], width, axis=1))
    with pytest.raises(ValueError, match=rf"labels \(10, {width}\) do not fit"):
        action_report(acts, demos, blocks, prices)


def test_trained_policy_beats_uninformed_decoder(prices):
    scen = default_config().scenario
    demos = build_dataset(scen, 2000, 11)
    cfg = _tiny_train_cfg(hidden_width=128, max_epochs=50, patience=50)
    result = train_policy(demos, cfg, seed=5)
    test_demos = demos.take(result.test_idx)
    test_blocks = _blocks(scen, test_demos)
    docs = action_report(docs_actions(result.model, test_demos, test_blocks),
                         test_demos, test_blocks, prices)
    pattern = np.concatenate([block.pattern for block in test_blocks])
    flat = decode_picks(np.full((len(test_demos), 12), 0.5), pattern)
    blind = action_report(flat, test_demos, test_blocks, prices)
    assert docs["exact_match"] > blind["exact_match"]
    assert docs["reward_ratio_vs_opt"] <= blind["reward_ratio_vs_opt"]
