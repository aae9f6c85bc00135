"""Imitation training against the exact solver's optima, plus policy scoring.

The policy is trained to reproduce the oracle's action bits from the
encoded episode state. Splits, shuffles, and initialization all hang off
one seed, so a fixed (dataset, config, seed) triple reproduces the loss
curve exactly. Training is pipelined one epoch deep: a worker thread
computes each epoch's losses on a copy of its weights while the next epoch
trains, so a run that stops early trains one epoch it then discards, and
the worker is joined before train_policy returns or raises. The bits are
those of the serial loop.

Scoring runs on whole streams, passed as the Tables blocks that
scenario.episode_blocks draws: each scheme's actions are one N x V array
of PAIRS indices (the labels, the batched forward pass decoded in one
projection, or a baseline built block by block), and action_report
scores them through evaluator.score. A baseline's retention replay runs
on each block's cache arrays too. A persistent rollout (cli) acts on one
row at a time, on lists, since each action sets the next row's cache.
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

    The run is pipelined one epoch deep. At each epoch's end the weights
    are copied, and one worker thread computes that copy's validation and
    training losses while this thread trains the next epoch; the copy
    becomes the best snapshot if its loss wins. This thread then collects
    the losses and applies the rules in order: the non-finite check, the
    curve point, the best snapshot, then patience. So a run that patience
    stops at epoch e has trained epoch e + 1 too, and discards it; a run
    that max_epochs ends trains nothing extra. The losses, the snapshots
    and the order of rng draws are those of the serial loop, so are the
    bits. The worker is joined before this returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    if not len(demos):
        raise ValueError("empty demonstration set")
    x, y = demos.features, demos.labels.astype(np.float64)
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = split_indices(
        len(demos), cfg.train_frac, cfg.val_frac, rng)
    dims = ((x.shape[1],) + (cfg.hidden_width,) * cfg.hidden_layers + (y.shape[1],))
    model = init_model(dims, seed)
    # the run's workspace, dropped when training ends: parameters, gradients
    # and moments in opt, the loss passes' activations in acts, which only
    # the worker touches
    opt = adam_state(model, cfg)
    grads = (opt.grad_w, opt.grad_b)

    x_tr, y_tr = x[train_idx], y[train_idx]
    x_va, y_va = x[val_idx], y[val_idx]
    acts = forward_workspace(model, max(len(x_tr), len(x_va)))
    # forward leaves its probabilities in buffer (layers - 1) % 2; the loss
    # keeps its temporaries in the other one
    scratch = acts[len(model.weights) % 2]

    def losses(params: MLPModel) -> tuple[float, float]:
        vl = cross_entropy(forward(params, x_va, out=acts), y_va, scratch)
        tl = cross_entropy(forward(params, x_tr, out=acts), y_tr, scratch)
        return vl, tl

    def snapshot() -> MLPModel:
        return replace(model, weights=[w.copy() for w in model.weights],
                       biases=[b.copy() for b in model.biases])

    def train_epoch() -> None:
        order = rng.permutation(len(train_idx))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad_w, grad_b = gradients(model, x_tr[batch], y_tr[batch], out=grads)
            adam_step(model, opt, grad_w, grad_b)

    curve: list[tuple[int, float, float]] = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        snap = snapshot()
        pending = worker.submit(losses, snap)
        for epoch in range(cfg.max_epochs + 1):
            last = epoch == cfg.max_epochs
            if not last:
                train_epoch()  # epoch + 1, while the worker scores epoch
            vl, tl = pending.result()
            if epoch and not (np.isfinite(vl) and np.isfinite(tl)):
                raise ValueError(
                    f"non-finite loss at epoch {epoch} (train {tl}, val {vl}); "
                    "check feature scaling and learning rate")
            curve.append((epoch, tl, vl))
            if epoch == 0 or vl < best_val:
                best_val, best, best_epoch = vl, snap, epoch
            elif epoch - best_epoch >= cfg.patience:
                break
            if not last:
                snap = snapshot()
                pending = worker.submit(losses, snap)
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
