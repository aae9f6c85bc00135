"""The training workspace and pipeline: train_policy, forward, gradients,
adam_step and cross_entropy write into buffers allocated once per run, the
loss passes run on a worker thread one epoch behind the training, and the
run gives the serial allocating loop's bits."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (reference_cross_entropy, reference_forward, reference_gradients,
                      reference_train_policy)
from satedge import dil
from satedge.config import default_config
from satedge.dil import train_policy
from satedge.neural import (adam_state, adam_step, cross_entropy, forward, forward_workspace,
                            gradients, init_model)
from satedge.oracle import Demonstrations, build_dataset

DEFAULT_DIMS = (54, 128, 128, 128, 12)


def _bits(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def _assert_same_run(demos, cfg):
    got, want = train_policy(demos, cfg, seed=5), reference_train_policy(demos, cfg, seed=5)
    assert got.best_epoch == want.best_epoch
    assert np.array(got.curve).tobytes() == np.array(want.curve).tobytes()
    assert _bits(got.model.weights + got.model.biases) == _bits(
        want.model.weights + want.model.biases)
    return got


@pytest.fixture(scope="module")
def demos_1000():
    return build_dataset(default_config().scenario, 1000, 21)


@pytest.fixture(scope="module")
def demos_300():
    return build_dataset(default_config().scenario, 300, 22)


def test_default_network_matches_the_allocating_loop(demos_1000):
    # 800 training rows: the last batch of each epoch holds 800 % 64 = 32
    cfg = dataclasses.replace(default_config().train, max_epochs=3)
    assert len(_assert_same_run(demos_1000, cfg).train_idx) % cfg.batch_size == 32


@pytest.mark.parametrize("layers", [1, 5])
def test_shallow_and_deep_networks_match_the_allocating_loop(demos_300, layers):
    cfg = dataclasses.replace(default_config().train, hidden_layers=layers, max_epochs=2)
    _assert_same_run(demos_300, cfg)


def test_one_subtask_matches_the_allocating_loop():
    scen = dataclasses.replace(default_config().scenario, num_subtasks=1)
    cfg = dataclasses.replace(default_config().train, hidden_width=32, max_epochs=4)
    _assert_same_run(build_dataset(scen, 300, 3), cfg)


def _counting_forward(monkeypatch) -> list[threading.Thread]:
    """Rebind dil.forward to record the thread of each call."""
    threads, inner = [], dil.forward

    def counted(*args, **kwargs):
        threads.append(threading.current_thread())
        return inner(*args, **kwargs)

    monkeypatch.setattr(dil, "forward", counted)
    return threads


def test_a_run_stopped_on_patience_matches_the_allocating_loop(demos_300, monkeypatch):
    cfg = dataclasses.replace(default_config().train, hidden_width=32, learning_rate=0.05,
                              max_epochs=60, patience=2)
    threads = _counting_forward(monkeypatch)
    result = _assert_same_run(demos_300, cfg)
    assert result.curve[-1][0] < cfg.max_epochs
    assert result.curve[-1][0] - result.best_epoch == cfg.patience
    # the speculative epoch after the stop is trained and discarded, never scored
    assert len(threads) == 2 * len(result.curve)


def test_the_loss_passes_run_on_one_worker_thread_joined_on_return(demos_300, monkeypatch):
    cfg = dataclasses.replace(default_config().train, hidden_width=32, max_epochs=5)
    threads = _counting_forward(monkeypatch)
    before = threading.enumerate()
    result = train_policy(demos_300, cfg, seed=5)
    assert threading.enumerate() == before
    assert [epoch for epoch, _, _ in result.curve] == list(range(cfg.max_epochs + 1))
    assert len(threads) == 2 * len(result.curve)
    assert len(set(threads)) == 1 and threads[0] is not threading.current_thread()


def test_no_thread_outlives_a_run_stopped_on_a_non_finite_loss():
    bad = Demonstrations(episode_id=np.arange(12), features=np.full((12, 8), np.nan),
                         labels=np.tile([0, 1], (12, 1)), opt_reward=np.ones(12))
    cfg = dataclasses.replace(default_config().train, hidden_layers=1, hidden_width=4,
                              max_epochs=5, patience=5, train_frac=0.5, val_frac=0.25)
    before = threading.enumerate()
    with pytest.raises(ValueError, match="non-finite loss at epoch 1 "):
        train_policy(bad, cfg, seed=0)
    assert threading.enumerate() == before


def test_no_thread_outlives_a_run_whose_training_step_raises(demos_300, monkeypatch):
    cfg = dataclasses.replace(default_config().train, hidden_width=32, max_epochs=5)
    calls, inner = [], dil.gradients

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:  # in epoch 2, while the worker scores epoch 1
            raise RuntimeError("injected")
        return inner(*args, **kwargs)

    monkeypatch.setattr(dil, "gradients", failing)
    threads = _counting_forward(monkeypatch)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="injected"):
        train_policy(demos_300, cfg, seed=5)
    assert threading.enumerate() == before
    assert len(threads) == 4  # epochs 0 and 1 were scored, the second before the join


def test_one_batch_larger_than_the_training_split_matches_the_allocating_loop(demos_300):
    cfg = dataclasses.replace(default_config().train, hidden_width=32, batch_size=4096,
                              max_epochs=4)
    _assert_same_run(demos_300, cfg)


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 800])
def test_forward_through_a_workspace_gives_the_allocating_bits(rows):
    model = init_model(DEFAULT_DIMS, seed=4)
    # wide enough that some outputs saturate both sigmoid branches
    x = np.random.default_rng(rows).normal(0.0, 30.0, size=(rows, DEFAULT_DIMS[0]))
    ws = forward_workspace(model, 800)
    fresh, into = forward(model, x), forward(model, x, out=ws)
    assert fresh.tobytes() == into.tobytes() == reference_forward(model, x).tobytes()
    assert np.shares_memory(into, ws)


def test_gradients_into_the_workspace_give_the_allocating_bits():
    model = init_model(DEFAULT_DIMS, seed=6)
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(65, DEFAULT_DIMS[0]))
    y = rng.integers(0, 2, size=(65, DEFAULT_DIMS[-1])).astype(float)
    want = reference_gradients(model, x, y)
    opt = adam_state(model, default_config().train)
    grad_w, grad_b = gradients(model, x, y, out=(opt.grad_w, opt.grad_b))
    assert grad_w is opt.grad_w and grad_b is opt.grad_b
    assert _bits(grad_w + grad_b) == _bits(want[0] + want[1])
    assert _bits(sum(gradients(model, x, y), [])) == _bits(want[0] + want[1])


def test_a_forward_workspace_too_small_is_refused():
    model = init_model((4, 8, 2), seed=0)
    with pytest.raises(ValueError, match="too small"):
        forward(model, np.zeros((3, 4)), out=forward_workspace(model, 2))


def test_adam_state_moves_the_parameters_into_its_flat_vector():
    model = init_model((4, 8, 2), seed=1)
    before = _bits(model.weights + model.biases)
    opt = adam_state(model, default_config().train)
    assert _bits(model.weights + model.biases) == before
    for p, g, m, v in zip(model.weights + model.biases, opt.grad_w + opt.grad_b, opt.m, opt.v):
        assert p.shape == g.shape == m.shape == v.shape
        assert all(a.base is opt.flat for a in (p, g, m, v))


def test_adam_step_refuses_a_model_it_was_not_built_for():
    model = init_model((4, 8, 2), seed=1)
    opt = adam_state(model, default_config().train)
    other = init_model((4, 8, 2), seed=1)
    with pytest.raises(ValueError, match="adam_state"):
        adam_step(other, opt, opt.grad_w, opt.grad_b)
    with pytest.raises(ValueError, match="gradient arrays"):
        adam_step(model, opt, opt.grad_w, [])
    assert opt.step_count == 0


def _peak_bytes(fn) -> int:
    """The most memory fn held at once beyond what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_adam_step_allocates_no_weight_sized_array():
    model = init_model(DEFAULT_DIMS, seed=8)
    opt = adam_state(model, default_config().train)
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(64, DEFAULT_DIMS[0]))
    y = rng.integers(0, 2, size=(64, DEFAULT_DIMS[-1])).astype(float)
    grads = gradients(model, x, y, out=(opt.grad_w, opt.grad_b))
    adam_step(model, opt, *grads)  # the first step
    smallest = min(w.nbytes for w in model.weights)
    assert _peak_bytes(lambda: adam_step(model, opt, *grads)) < smallest


def test_a_loss_pass_through_a_workspace_allocates_nothing_row_sized():
    rows = 800
    model = init_model(DEFAULT_DIMS, seed=10)
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(rows, DEFAULT_DIMS[0]))
    y = rng.integers(0, 2, size=(rows, DEFAULT_DIMS[-1])).astype(float)
    ws = forward_workspace(model, rows)
    forward(model, x, out=ws)
    # one rows x 128 hidden activation; the allocating pass held three at once
    hidden = rows * DEFAULT_DIMS[1] * 8
    # the pass holds the sigmoid's rows x 12 sign mask and numpy's fixed
    # iteration buffer; the loss adds its rows x 12 arrays
    assert _peak_bytes(lambda: forward(model, x, out=ws)) < hidden / 8
    assert _peak_bytes(lambda: cross_entropy(forward(model, x, out=ws), y)) < hidden
    # the loss's temporaries in the buffer forward's output is not in: the
    # whole pass stays under forward's own bound, the loss under a byte per value
    scratch = ws[len(model.weights) % 2]
    assert _peak_bytes(lambda: cross_entropy(forward(model, x, out=ws), y, scratch)) < hidden / 8
    probs = forward(model, x, out=ws)
    assert _peak_bytes(lambda: cross_entropy(probs, y, scratch)) < probs.size


EDGE_PROBS = (0.0, 1.0, 1e-12, 1.0 - 1e-12)


@pytest.mark.parametrize("rows", [1, 63, 800])
def test_cross_entropy_in_scratch_gives_the_allocating_bits(rows):
    width = DEFAULT_DIMS[-1]
    rng = np.random.default_rng(rows)
    probs = rng.uniform(size=(rows, width))
    # the clip's edges and the values beside them, in every column
    probs.flat[::3] = np.resize(EDGE_PROBS, probs.flat[::3].shape)
    y = rng.integers(0, 2, size=(rows, width)).astype(float)
    want = reference_cross_entropy(probs, y)
    # at an offset of one value, so no slice starts where a fresh array would
    scratch = np.full(3 * probs.size + 1, np.nan)[1:]
    got = cross_entropy(probs, y, scratch)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert np.float64(cross_entropy(probs, y)).tobytes() == np.float64(want).tobytes()
    assert probs.flat[:12:3].tolist() == list(EDGE_PROBS)  # the input is left alone


def test_cross_entropy_refuses_scratch_too_small():
    probs, y = np.full((4, 3), 0.5), np.ones((4, 3))
    with pytest.raises(ValueError, match="too small"):
        cross_entropy(probs, y, np.empty(3 * probs.size - 1))
    assert cross_entropy(probs, y, np.empty(3 * probs.size)) == cross_entropy(probs, y)
