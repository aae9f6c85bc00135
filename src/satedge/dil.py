"""Imitation training against the exact solver's optima, plus policy scoring.

The policy is trained to reproduce the oracle's action bits from the
encoded episode state. Splits, shuffles, and initialization all hang off
one seed, so a fixed (dataset, config, seed) triple reproduces the loss
curve exactly.

Scoring runs on whole streams, passed as the Tables blocks that
scenario.episode_blocks draws: each scheme's actions are one N x V array
of PAIRS indices (the labels, the batched forward pass decoded in one
projection, or a baseline built block by block), and action_report
scores them through evaluator.score. A baseline's retention replay runs
on each block's cache arrays too; only a persistent rollout acts on
blocks of one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .caching import left_sum
from .config import TrainConfig
from .evaluator import PriceVector, Tables, label_bits, label_picks, score
from .neural import (MLPModel, adam_state, adam_step, cross_entropy, decode_picks,
                     forward, forward_workspace, gradients, init_model)
from .oracle import Demonstrations
from .policies import baseline_actions


@dataclass
class TrainResult:
    model: MLPModel  # parameters of the best validation epoch
    curve: list[tuple[int, float, float]]  # (epoch, train_loss, val_loss)
    best_epoch: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


def split_indices(n: int, train_frac: float, val_frac: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    if n_train < 1 or n_val < 1 or n_train + n_val >= n:
        raise ValueError(f"splits leave no usable test set for n={n}")
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def train_policy(demos: Demonstrations, cfg: TrainConfig, seed: int) -> TrainResult:
    """Mini-batch Adam with early stopping on validation loss.

    The curve starts at epoch 0 (losses before any update) and the
    returned model is the best-validation snapshot, so its validation
    loss never exceeds the epoch-0 value.
    """
    if not len(demos):
        raise ValueError("empty demonstration set")
    x, y = demos.features, demos.labels.astype(np.float64)
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = split_indices(
        len(demos), cfg.train_frac, cfg.val_frac, rng)
    dims = ((x.shape[1],) + (cfg.hidden_width,) * cfg.hidden_layers + (y.shape[1],))
    model = init_model(dims, seed)
    # the run's workspace, dropped when training ends: parameters, gradients
    # and moments in opt, both loss passes' activations in acts
    opt = adam_state(model, cfg)
    grads = (opt.grad_w, opt.grad_b)

    x_tr, y_tr = x[train_idx], y[train_idx]
    x_va, y_va = x[val_idx], y[val_idx]
    acts = forward_workspace(model, max(len(x_tr), len(x_va)))

    def train_loss() -> float:
        return cross_entropy(forward(model, x_tr, out=acts), y_tr)

    def val_loss() -> float:
        return cross_entropy(forward(model, x_va, out=acts), y_va)

    def snapshot() -> MLPModel:
        return replace(model, weights=[w.copy() for w in model.weights],
                       biases=[b.copy() for b in model.biases])

    best_val = val_loss()
    best = snapshot()
    best_epoch = 0
    curve = [(0, train_loss(), best_val)]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_idx))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad_w, grad_b = gradients(model, x_tr[batch], y_tr[batch], out=grads)
            adam_step(model, opt, grad_w, grad_b)
        vl = val_loss()
        tl = train_loss()
        if not (np.isfinite(vl) and np.isfinite(tl)):
            raise ValueError(
                f"non-finite loss at epoch {epoch} (train {tl}, val {vl}); "
                "check feature scaling and learning rate")
        curve.append((epoch, tl, vl))
        if vl < best_val:
            best_val = vl
            best = snapshot()
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            break
    return TrainResult(model=best, curve=curve, best_epoch=best_epoch,
                       train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)


# ---------------------------------------------------------------------------
# scoring


def docs_actions(model: MLPModel, demos: Demonstrations, blocks: Sequence[Tables],
                 ) -> np.ndarray:
    """The trained policy's actions: one batched forward pass, decoded at once."""
    pattern = np.concatenate([block.pattern for block in blocks])
    return decode_picks(forward(model, demos.features), pattern)


def oracle_actions(demos: Demonstrations) -> np.ndarray:
    """The labels' actions, as N x V PAIRS indices."""
    return label_picks(demos.labels)


def scheme_actions(scheme: str, model: MLPModel | None, demos: Demonstrations | None,
                   blocks: Sequence[Tables], prices: PriceVector) -> np.ndarray:
    """One scheme's actions: the labels, the decoded policy, or a baseline."""
    if scheme == "oracle":
        return oracle_actions(demos)
    if scheme == "docs":
        return docs_actions(model, demos, blocks)
    of_kind, ch_kind = scheme.split("-")
    return baseline_actions(of_kind, ch_kind, blocks, prices)


def action_report(actions: np.ndarray, demos: Demonstrations,
                  blocks: Sequence[Tables], prices: PriceVector) -> dict[str, float]:
    """Accuracy and cost metrics for one policy's N x V actions against the
    oracle labels.

    exact_match is the fraction of episodes whose full bit pattern equals
    the oracle's; reward_ratio_vs_opt is the ratio of mean rewards. The
    sums over episodes are left folds in episode order, and one that is
    not finite raises ValueError.
    """
    if not (len(actions) == len(demos) == sum(map(len, blocks))):
        raise ValueError("actions, demos, and the blocks' states must align")
    rewards, times = score(blocks, actions, prices)
    bits = label_bits(actions)
    if demos.labels.shape != bits.shape:
        raise ValueError(f"labels {demos.labels.shape} do not fit action bits {bits.shape}")
    same = bits == demos.labels
    n = len(demos)
    sums = []
    for name, values in (("reward", rewards), ("completion time", times),
                         ("optimal reward", demos.opt_reward.tolist())):
        total = left_sum(values)
        if not math.isfinite(total):
            raise ValueError(f"the {name} summed over {n} episodes is {total!r}")
        sums.append(total)
    sum_reward, sum_time, sum_opt = sums
    return {
        "exact_match": int(same.all(axis=1).sum()) / n,
        "per_bit_acc": int(same.sum()) / same.size,
        "mean_reward": sum_reward / n,
        "mean_completion_time_s": sum_time / n,
        "reward_ratio_vs_opt": sum_reward / sum_opt,
    }
