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
from satedge.evaluator import patterns
from satedge.neural import cross_entropy, decode_picks, forward
from satedge.oracle import Demonstration, build_dataset
from satedge.scenario import episode_states, make_library, prices_from


def _demos_and_states(n, seed=11):
    scen = default_config().scenario
    demos = build_dataset(scen, n, seed)
    library = make_library(scen, seed)
    states = list(episode_states(scen, seed, [d.episode_id for d in demos], library))
    return scen, demos, states


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
    _, demos, _ = _demos_and_states(200)
    cfg = _tiny_train_cfg(max_epochs=150, patience=150, learning_rate=0.003)
    result = train_policy(demos, cfg, seed=0)
    x = np.stack([demos[i].features for i in result.train_idx])
    y = np.array([demos[i].labels for i in result.train_idx], dtype=float)
    final = result.curve[-1][1]
    assert final < 0.05, f"train loss stuck at {final}"
    # and the quoted curve matches a recomputation on the raw arrays
    # for the best snapshot that came back
    val_x = np.stack([demos[i].features for i in result.val_idx])
    val_y = np.array([demos[i].labels for i in result.val_idx], dtype=float)
    best_val = cross_entropy(forward(result.model, val_x), val_y)
    assert best_val == min(v for _, _, v in result.curve)
    assert y.shape[0] == len(result.train_idx) and x.shape[0] == y.shape[0]


def test_training_memorizes_single_sample():
    _, demos, _ = _demos_and_states(10)
    cfg = _tiny_train_cfg(train_frac=0.1, val_frac=0.1, hidden_layers=1,
                          hidden_width=16, batch_size=1, max_epochs=900,
                          patience=900, learning_rate=0.01)
    result = train_policy(demos, cfg, seed=3)
    assert result.curve[-1][1] < 1e-3


def test_training_is_reproducible():
    _, demos, _ = _demos_and_states(120)
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
    _, demos, _ = _demos_and_states(150)
    cfg = _tiny_train_cfg(max_epochs=20, patience=20)
    result = train_policy(demos, cfg, seed=1)
    epochs = [e for e, _, _ in result.curve]
    assert epochs[0] == 0 and epochs == list(range(len(epochs)))
    val0 = result.curve[0][2]
    best_val = min(v for _, _, v in result.curve)
    assert best_val <= val0
    assert result.curve[result.best_epoch][2] == best_val


def test_early_stopping_caps_epochs_after_plateau():
    _, demos, _ = _demos_and_states(150)
    cfg = _tiny_train_cfg(max_epochs=200, patience=3, learning_rate=0.05)
    result = train_policy(demos, cfg, seed=2)
    last_epoch = result.curve[-1][0]
    assert last_epoch < 200
    assert last_epoch - result.best_epoch >= 3


def test_non_finite_loss_aborts_with_diagnostics():
    bad = [Demonstration(episode_id=i, features=np.full(8, np.nan),
                         labels=(0, 1), opt_reward=1.0) for i in range(12)]
    cfg = _tiny_train_cfg(max_epochs=5, patience=5, hidden_layers=1,
                          hidden_width=4, train_frac=0.5, val_frac=0.25)
    with pytest.raises(ValueError, match="non-finite"):
        train_policy(bad, cfg, seed=0)


def test_empty_demo_list_rejected():
    with pytest.raises(ValueError):
        train_policy([], _tiny_train_cfg(), seed=0)


# ---------------------------------------------------------------------------
# reports


def test_action_report_oracle_identity(prices):
    _, demos, states = _demos_and_states(60)
    report = action_report(oracle_actions(demos), demos, states, prices)
    assert report["exact_match"] == 1.0
    assert report["per_bit_acc"] == 1.0
    assert abs(report["reward_ratio_vs_opt"] - 1.0) <= 1e-9
    assert report["mean_completion_time_s"] > 0.0


def test_action_report_counts_partial_matches(prices):
    _, demos, states = _demos_and_states(40)
    acts = baseline_actions("to", "mrc", states, prices)
    report = action_report(acts, demos, states, prices)
    assert 0.0 <= report["exact_match"] <= 1.0
    assert 0.0 <= report["per_bit_acc"] <= 1.0
    assert report["reward_ratio_vs_opt"] >= 1.0 - 1e-9


def test_action_report_rejects_misaligned_lists(prices):
    _, demos, states = _demos_and_states(10)
    acts = oracle_actions(demos)
    with pytest.raises(ValueError):
        action_report(acts[:-1], demos, states, prices)
    with pytest.raises(ValueError):
        action_report(acts, demos[:-1], states, prices)


@pytest.mark.parametrize("width", [1, 11, 13])
def test_action_report_rejects_labels_of_another_width(prices, width):
    # one label bit would broadcast against every bit of its action
    _, demos, states = _demos_and_states(10)
    acts = oracle_actions(demos)
    demos[4] = dataclasses.replace(demos[4], labels=demos[4].labels[:1] * width)
    with pytest.raises(ValueError, match=f"demonstration 4 holds {width} label bits"):
        action_report(acts, demos, states, prices)


def test_trained_policy_beats_uninformed_decoder(prices):
    _, demos, states = _demos_and_states(2000)
    cfg = _tiny_train_cfg(hidden_width=128, max_epochs=50, patience=50)
    result = train_policy(demos, cfg, seed=5)
    test_demos = [demos[i] for i in result.test_idx]
    test_states = [states[i] for i in result.test_idx]
    docs = action_report(docs_actions(result.model, test_demos, test_states),
                         test_demos, test_states, prices)
    flat = decode_picks(np.full((len(test_states), 12), 0.5), patterns(test_states))
    blind = action_report(flat, test_demos, test_states, prices)
    assert docs["exact_match"] > blind["exact_match"]
    assert docs["reward_ratio_vs_opt"] <= blind["reward_ratio_vs_opt"]
