"""Feature encoding, MLP math, decoding, and checkpoint format."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_LINK, compute, download, gradient_check, make_cache,
                      make_state, states_of, stream_blocks, upload)
from satedge.caching import request_probability
from satedge.config import TrainConfig
from satedge.evaluator import completion_time
from satedge.neural import (
    LAYOUT_VERSION,
    CheckpointError,
    FeatureScaler,
    MLPModel,
    adam_state,
    adam_step,
    cross_entropy,
    decode_actions,
    encode_state,
    encode_states,
    feature_dim,
    forward,
    gradients,
    infer,
    init_model,
    load_model,
    save_model,
)
from satedge.scenario import make_library


# ---------------------------------------------------------------------------
# feature scaling


def test_feature_dim_layout_v1():
    assert feature_dim(6) == 54
    assert feature_dim(1) == 14
    assert feature_dim(4) == 38


def _clamps(caplog) -> list[int]:
    """The count in each clamp warning logged, in order."""
    return [int(rec.getMessage().split()[1]) for rec in caplog.records
            if rec.getMessage().startswith("clamped")]


def test_scaler_maps_declared_range_to_unit_interval(caplog):
    scaler = FeatureScaler(lo=np.array([0.0, -2.0, 10.0]),
                           hi=np.array([4.0, 2.0, 11.0]))
    with caplog.at_level("WARNING", logger="satedge.neural"):
        assert np.array_equal(scaler.transform(scaler.lo), np.zeros(3))
        assert np.array_equal(scaler.transform(scaler.hi), np.ones(3))
        mid = scaler.transform(np.array([2.0, 0.0, 10.5]))
    assert np.allclose(mid, 0.5, rtol=0, atol=1e-15)
    assert _clamps(caplog) == []


def test_scaler_clamps_out_of_range_and_counts(caplog):
    scaler = FeatureScaler(lo=np.zeros(2), hi=np.ones(2))
    with caplog.at_level("WARNING", logger="satedge.neural"):
        out = scaler.transform(np.array([2.0, 0.5]))
        below = scaler.transform(np.array([-3.0, -1.0]))
    assert np.array_equal(out, np.array([1.0, 0.5]))
    assert np.array_equal(below, np.zeros(2))
    assert _clamps(caplog) == [1, 2]  # per call, not a running total


def test_scaler_batch_equals_row_by_row(caplog):
    rng = np.random.default_rng(4)
    lo, hi = np.array([0.0, -2.0, 10.0]), np.array([4.0, 2.0, 11.0])
    raw = rng.uniform(-5.0, 15.0, size=(40, 3))  # many rows clamp somewhere
    rows, batch = FeatureScaler(lo=lo, hi=hi), FeatureScaler(lo=lo, hi=hi)
    with caplog.at_level("WARNING", logger="satedge.neural"):
        stacked = np.stack([rows.transform(r) for r in raw])
        row_clamps = sum(_clamps(caplog))
        caplog.clear()
        scaled = batch.transform(raw)
    assert scaled.tobytes() == stacked.tobytes()
    assert _clamps(caplog) == [row_clamps] and row_clamps > 0
    assert len([r for r in caplog.records if "clamped" in r.getMessage()]) == 1
    assert batch.transform(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("shape", [(), (2,), (4,), (5, 2), (5, 4), (2, 5, 3), (3, 1)])
def test_scaler_rejects_other_shapes(shape):
    scaler = FeatureScaler(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(ValueError):
        scaler.transform(np.zeros(shape))


def test_encode_states_equals_encode_state_per_row(cfg):
    scaler = FeatureScaler.from_scenario(cfg.scenario)
    blocks = stream_blocks(cfg.scenario, 8, 30)
    batch = encode_states(blocks, scaler)
    assert batch.tobytes() == np.stack([encode_state(s, scaler)
                                        for s in states_of(blocks)]).tobytes()


def test_scaler_rejects_bad_ranges():
    with pytest.raises(ValueError):
        FeatureScaler(lo=np.array([0.0, 1.0]), hi=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FeatureScaler(lo=np.zeros(3), hi=np.ones(2))
    scaler = FeatureScaler(lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(ValueError):
        scaler.transform(np.zeros(3))


def test_scaler_from_scenario_covers_generated_episodes(cfg, caplog):
    scen = cfg.scenario
    scaler = FeatureScaler.from_scenario(scen)
    assert scaler.lo.shape == (feature_dim(scen.num_subtasks),)
    with caplog.at_level("WARNING", logger="satedge.neural"):
        for state in states_of(stream_blocks(scen, 7, 100)):
            enc = encode_state(state, scaler)
            assert np.all(enc >= 0.0) and np.all(enc <= 1.0)
    assert _clamps(caplog) == []


def test_encode_layout_hand_case(cfg):
    import dataclasses

    scen = dataclasses.replace(cfg.scenario, num_subtasks=3)
    scaler = FeatureScaler.from_scenario(scen)
    task = (upload(d_in=400e3), download(d_out=160e3, rank=1),
            compute(d_in=100e3, d_out=100e3, rho=1e4, rank=2))
    state = make_state(task, cache=make_cache(placed=(1,)))
    enc = encode_state(state, scaler)
    raw = enc * (scaler.hi - scaler.lo) + scaler.lo

    pop1 = request_probability(1, 1.0, 30)
    pop2 = request_probability(2, 1.0, 30)
    expected = [
        300.0, 1.6e6, 2.4e6, 0.03, 0.27, 1e10,
        # upload: no output, no compute work, both category flags off
        0.0, 400e3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        # download of rank 1, which the starting cache holds
        0.0, 0.0, 160e3, 0.0, 0.0, 1.0, 1.0, pop1,
        # compute producing rank 2, not cached
        1e9, 100e3, 100e3, 1e4, 1.0, 0.0, 0.0, pop2,
    ]
    assert np.allclose(raw, np.array(expected), rtol=1e-12, atol=1e-18)
    # flag and popularity slots land where the layout says they do
    assert enc[6 + 8 + 4] == 0.0 and enc[6 + 8 + 5] == 1.0  # download flags
    assert enc[6 + 16 + 4] == 1.0 and enc[6 + 16 + 5] == 0.0  # compute flags
    assert enc[6 + 8 + 6] == 1.0 and enc[6 + 16 + 6] == 0.0  # hit flags
    assert enc[6 + 8 + 7] == 1.0  # rank 1 sits at the popularity ceiling


def test_encode_rejects_wrong_subtask_count(cfg):
    scaler = FeatureScaler.from_scenario(cfg.scenario)  # sized for 6 sub-tasks
    state = make_state((upload(),))
    with pytest.raises(ValueError):
        encode_state(state, scaler)


# ---------------------------------------------------------------------------
# forward pass


def test_init_model_glorot_bounds_and_determinism():
    a = init_model((10, 8, 4), seed=3)
    b = init_model((10, 8, 4), seed=3)
    c = init_model((10, 8, 4), seed=4)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))
    for (fan_in, fan_out), w in zip(zip(a.dims[:-1], a.dims[1:]), a.weights):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_in, fan_out)
        assert np.all(np.abs(w) <= bound)
    for bias in a.biases:
        assert np.array_equal(bias, np.zeros_like(bias))


def test_model_holds_the_policy_only():
    names = {f.name for f in dataclasses.fields(MLPModel)}
    assert names == {"dims", "weights", "biases", "seed"}


def test_init_model_rejects_degenerate_dims():
    with pytest.raises(ValueError):
        init_model((5,), seed=0)
    with pytest.raises(ValueError):
        init_model((5, 0, 2), seed=0)


def test_forward_zero_weights_emit_half():
    model = init_model((7, 5, 4), seed=0)
    for w in model.weights:
        w[:] = 0.0
    out = forward(model, np.linspace(-3.0, 3.0, 7))
    assert np.array_equal(out, np.full(4, 0.5))


def test_forward_hand_case_with_dead_relu():
    model = init_model((2, 2, 2), seed=0)
    model.weights[0][:] = [[1.0, -1.0], [2.0, 0.5]]
    model.biases[0][:] = [0.25, -0.5]
    model.weights[1][:] = [[1.0, 0.5], [-1.0, 2.0]]
    model.biases[1][:] = [0.1, -0.2]
    # hidden pre-activations: [5.25, -0.5] -> ReLU kills the second unit
    out = forward(model, np.array([1.0, 2.0]))
    z0 = 5.25 * 1.0 + 0.1
    z1 = 5.25 * 0.5 - 0.2
    expected = [1.0 / (1.0 + math.exp(-z0)), 1.0 / (1.0 + math.exp(-z1))]
    assert np.allclose(out, expected, rtol=1e-15, atol=0)
    # flipping the dead unit's outgoing weights must not change anything
    model.weights[1][1, :] = [40.0, -40.0]
    assert np.allclose(forward(model, np.array([1.0, 2.0])), expected,
                       rtol=1e-15, atol=0)


def test_forward_batch_matches_single_rows():
    model = init_model((6, 8, 4), seed=11)
    rng = np.random.default_rng(5)
    batch = rng.uniform(0.0, 1.0, size=(5, 6))
    stacked = forward(model, batch)
    assert stacked.shape == (5, 4)
    for i in range(5):
        assert np.allclose(stacked[i], forward(model, batch[i]),
                           rtol=1e-12, atol=1e-15)


def test_sigmoid_extremes_stay_finite():
    model = init_model((1, 1), seed=0)
    model.weights[0][:] = [[1.0]]
    lo = forward(model, np.array([-800.0]))
    hi = forward(model, np.array([800.0]))
    assert 0.0 <= lo[0] < 1e-100
    assert hi[0] == 1.0 or (1.0 - hi[0]) < 1e-15
    assert np.isfinite(lo).all() and np.isfinite(hi).all()


# ---------------------------------------------------------------------------
# loss and gradients


def test_cross_entropy_half_probability_is_ln2():
    p = np.full(8, 0.5)
    assert abs(cross_entropy(p, np.ones(8)) - math.log(2.0)) <= 1e-12
    assert abs(cross_entropy(p, np.zeros(8)) - math.log(2.0)) <= 1e-12


def test_cross_entropy_perfect_fit_hits_clip_floor():
    y = np.array([1.0, 0.0, 1.0, 1.0])
    assert 0.0 <= cross_entropy(y, y) <= 1e-11


def test_cross_entropy_scripted_case():
    p = np.array([0.8, 0.3])
    y = np.array([1.0, 0.0])
    expected = (-math.log(0.8) - math.log(0.7)) / 2.0
    assert abs(cross_entropy(p, y) - expected) <= 1e-15


def test_cross_entropy_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        cross_entropy(np.full(3, 0.5), np.ones(4))


def test_loss_and_gradients_are_means_over_components():
    # duplicating every sample changes neither the loss nor the gradient
    model = init_model((4, 6, 2), seed=9)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, size=(5, 4))
    y = rng.integers(0, 2, size=(5, 2)).astype(float)
    xx, yy = np.vstack([x, x]), np.vstack([y, y])
    assert abs(cross_entropy(forward(model, x), y)
               - cross_entropy(forward(model, xx), yy)) <= 1e-15
    gw, gb = gradients(model, x, y)
    gw2, gb2 = gradients(model, xx, yy)
    for g, g2 in zip(gw + gb, gw2 + gb2):
        assert np.allclose(g, g2, rtol=1e-12, atol=1e-18)


def test_gradients_vanish_when_labels_equal_output():
    model = init_model((5, 7, 3), seed=2)
    x = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 5))
    gw, gb = gradients(model, x, forward(model, x))
    for g in gw + gb:
        assert np.array_equal(g, np.zeros_like(g))


def test_gradient_check_random_small_nets():
    rng = np.random.default_rng(77)
    worst = 0.0
    for seed in range(10):
        model = init_model((6, 8, 4), seed=seed)
        x = rng.uniform(0.0, 1.0, size=(3, 6))
        y = rng.integers(0, 2, size=(3, 4)).astype(float)
        worst = max(worst, gradient_check(model, x, y, eps=1e-5))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_moves_by_learning_rate():
    model = init_model((1, 1), seed=0)
    model.weights[0][:] = [[0.7]]
    w_before = model.weights[0][0, 0]
    b_before = model.biases[0][0]
    opt = adam_state(model, TrainConfig())
    adam_step(model, opt, [np.array([[2.0]])], [np.array([0.5])])
    assert opt.step_count == 1
    # bias correction makes the very first update lr * g / (|g| + eps)
    assert abs((w_before - model.weights[0][0, 0]) - 0.001) <= 1e-9
    assert abs((b_before - model.biases[0][0]) - 0.001) <= 1e-9


def test_adam_moment_accumulators_after_one_step():
    model = init_model((1, 1), seed=0)
    opt = adam_state(model, TrainConfig())
    assert opt.step_count == 0
    assert all(not arr.any() for arr in opt.m + opt.v)
    g = 3.0
    adam_step(model, opt, [np.array([[g]])], [np.zeros(1)])
    (m_w, m_b), (v_w, v_b) = opt.m, opt.v  # weights first, then biases
    assert np.allclose(m_w, 0.1 * g, rtol=1e-15)
    assert np.allclose(v_w, 0.001 * g * g, rtol=1e-12)
    assert m_b[0] == 0.0 and v_b[0] == 0.0


def test_adam_zero_gradient_leaves_weights_alone():
    model = init_model((3, 4, 2), seed=6)
    snapshot = [w.copy() for w in model.weights]
    zeros_w = [np.zeros_like(w) for w in model.weights]
    zeros_b = [np.zeros_like(b) for b in model.biases]
    opt = adam_state(model, TrainConfig())
    adam_step(model, opt, zeros_w, zeros_b)
    assert opt.step_count == 1
    for w, keep in zip(model.weights, snapshot):
        assert np.array_equal(w, keep)


def test_adam_identical_histories_identical_weights():
    a = init_model((4, 5, 2), seed=12)
    b = init_model((4, 5, 2), seed=12)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, size=(6, 4))
    y = rng.integers(0, 2, size=(6, 2)).astype(float)
    opt_a, opt_b = adam_state(a, TrainConfig()), adam_state(b, TrainConfig())
    for _ in range(3):
        adam_step(a, opt_a, *gradients(a, x, y))
        adam_step(b, opt_b, *gradients(b, x, y))
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)


def test_adam_sign_descent_lowers_loss():
    model = init_model((4, 8, 2), seed=21)
    rng = np.random.default_rng(22)
    x = rng.uniform(0.0, 1.0, size=(16, 4))
    y = rng.integers(0, 2, size=(16, 2)).astype(float)
    before = cross_entropy(forward(model, x), y)
    opt = adam_state(model, TrainConfig())
    for _ in range(50):
        adam_step(model, opt, *gradients(model, x, y))
    after = cross_entropy(forward(model, x), y)
    assert after < before


# ---------------------------------------------------------------------------
# decoding


def test_decode_keeps_feasible_thresholded_bits():
    state = make_state((upload(),))
    act = decode_actions(np.array([0.9, 0.2]), state)
    assert (act.offload, act.cache) == ((1,), (0,))


def test_decode_projects_by_bit_likelihood():
    # (0.1, 0.1) thresholds to (0, 0), infeasible for an upload; the
    # likelihood of (1, 0) is 0.1 * 0.9, beating (1, 1) at 0.1 * 0.1
    state = make_state((upload(),))
    act = decode_actions(np.array([0.1, 0.1]), state)
    assert (act.offload, act.cache) == ((1,), (0,))


def test_decode_confident_compute_keeps_both_bits():
    state = make_state((compute(),))
    act = decode_actions(np.array([0.99, 0.99]), state)
    assert (act.offload, act.cache) == ((1,), (1,))


def test_decode_exact_tie_falls_to_smaller_pair():
    # both remaining upload pairs score 0.25; (1, 0) < (1, 1) wins
    state = make_state((upload(),))
    act = decode_actions(np.array([0.5, 0.5]), state)
    assert (act.offload, act.cache) == ((1,), (0,))


def test_decode_respects_coverage_forced_caching():
    state = make_state((download(),), t_c=0.5)
    act = decode_actions(np.array([0.01, 0.01]), state)
    assert (act.offload, act.cache) == ((0,), (1,))


def test_decode_saturated_download_keeps_the_free_bit():
    # (1.0, 0.9) thresholds to (1, 1); a download must not offload, and
    # (0, 1) is one flip away while (0, 0) is two
    state = make_state((download(),))
    for probs in ([1.0, 0.9], [0.99, 0.9]):
        act = decode_actions(np.array(probs), state)
        assert (act.offload, act.cache) == ((0,), (1,))


def test_decode_saturated_upload_keeps_the_free_bit():
    # (0.0, 0.9) thresholds to (0, 1); an upload must offload
    state = make_state((upload(),))
    for probs in ([0.0, 0.9], [0.01, 0.9]):
        act = decode_actions(np.array(probs), state)
        assert (act.offload, act.cache) == ((1,), (1,))


def test_decode_rejects_wrong_width():
    state = make_state((upload(), compute()))
    with pytest.raises(ValueError):
        decode_actions(np.array([0.5, 0.5, 0.5]), state)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_decode_always_feasible(seed, data):
    from satedge.config import default_config

    scen = default_config().scenario
    library = make_library(scen, seed=42)
    from satedge.scenario import episode_state

    state = episode_state(scen, seed=seed, episode=0, library=library)
    probs = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=12, max_size=12)))
    act = decode_actions(probs, state)
    completion_time(state, act)


# ---------------------------------------------------------------------------
# checkpoints


def _trained_toy_model():
    model = init_model((6, 5, 4), seed=17)
    rng = np.random.default_rng(18)
    x = rng.uniform(0.0, 1.0, size=(8, 6))
    y = rng.integers(0, 2, size=(8, 4)).astype(float)
    adam_step(model, adam_state(model, TrainConfig()), *gradients(model, x, y))
    scaler = FeatureScaler(lo=np.zeros(6), hi=np.linspace(1.0, 6.0, 6))
    return model, scaler


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    model, scaler = _trained_toy_model()
    first = tmp_path / "model.txt"
    second = tmp_path / "again.txt"
    save_model(first, model, scaler)
    loaded, loaded_scaler = load_model(first)
    save_model(second, loaded, loaded_scaler)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_restores_every_field(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    loaded, loaded_scaler = load_model(path)
    assert loaded.dims == model.dims
    assert loaded.seed == model.seed
    assert f"layout_version={LAYOUT_VERSION}" in path.read_text().splitlines()
    for mine, theirs in zip(model.weights + model.biases,
                            loaded.weights + loaded.biases):
        assert np.array_equal(mine, theirs)
    assert np.array_equal(scaler.lo, loaded_scaler.lo)
    assert np.array_equal(scaler.hi, loaded_scaler.hi)


def test_checkpoint_holds_no_optimizer_state(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    lines = path.read_text().splitlines()
    assert lines[0] == "#satedge-model v3"
    assert [line.split("=")[0] for line in lines[1:6]] == \
        ["layout_version", "seed", "dims", "scaler_lo", "scaler_hi"]
    # each block header, then the block's one base64 line, then nothing more
    assert lines[6::2] == ["#block W0 6x5", "#block b0 5", "#block W1 5x4", "#block b1 4"]
    assert [len(line) for line in lines[7::2]] == \
        [4 * math.ceil(8 * n / 3) for n in (30, 5, 20, 4)]


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def _row(arr):
    """One block or scaler row as the v1 and v2 writers spelled it."""
    return ",".join(repr(float(v)) for v in arr)


def _v1_lines(model, scaler, learning_rate):
    """What the v1 writer produced: Adam header lines and moment blocks."""
    lines = ["#satedge-model v1", f"layout_version={LAYOUT_VERSION}",
             f"seed={model.seed}", "dims=" + ",".join(map(str, model.dims)),
             f"learning_rate={learning_rate}", "beta1=0.9", "beta2=0.999",
             "eps=1e-08", "step_count=1",
             "scaler_lo=" + _row(scaler.lo), "scaler_hi=" + _row(scaler.hi)]
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        zw, zb = np.zeros_like(w), np.zeros_like(b)
        for tag, arr in (("W", w), ("b", b), ("mW", zw), ("vW", zw),
                         ("mb", zb), ("vb", zb)):
            lines.append(f"#block {tag}{k} " + "x".join(map(str, arr.shape)))
            lines += [_row(r) for r in np.atleast_2d(arr)]
    return lines


@pytest.mark.parametrize("learning_rate", ["0.001", "nan"])
def test_checkpoint_rejects_v1_and_says_to_retrain(tmp_path, learning_rate):
    model, scaler = _trained_toy_model()
    path = _write_lines(tmp_path / "v1.txt", _v1_lines(model, scaler, learning_rate))
    with pytest.raises(CheckpointError, match="satedge train"):
        load_model(path)


def _v2_lines(model, scaler):
    """What the v2 writer produced: each block row as repr decimals."""
    lines = ["#satedge-model v2", f"layout_version={LAYOUT_VERSION}",
             f"seed={model.seed}", "dims=" + ",".join(map(str, model.dims)),
             "scaler_lo=" + _row(scaler.lo), "scaler_hi=" + _row(scaler.hi)]
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        for tag, arr in (("W", w), ("b", b)):
            lines.append(f"#block {tag}{k} " + "x".join(map(str, arr.shape)))
            lines += [_row(r) for r in np.atleast_2d(arr)]
    return lines


def test_checkpoint_rejects_v2_and_says_to_retrain(tmp_path):
    model, scaler = _trained_toy_model()
    path = _write_lines(tmp_path / "v2.txt", _v2_lines(model, scaler))
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: not a v3 model checkpoint; v1 and v2 files are "
                              "no longer read, re-run `satedge train`")


# the signed zero, the least subnormal, the least normal, the greatest
# finite double, and a value no short decimal spells
EXTREMES = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3)


def test_checkpoint_round_trip_is_exact_to_the_bit(tmp_path):
    model, _ = _trained_toy_model()
    values = np.array(EXTREMES + tuple(-v for v in EXTREMES))
    for p in model.weights + model.biases:
        p.reshape(-1)[:] = np.resize(values, p.size)
    # scaler ranges, each hi above its lo, through the same five values
    chain = np.array([-1.7976931348623157e308, -0.0, 5e-324, 2.2250738585072014e-308,
                      1 / 3, 1.0, 1.7976931348623157e308])
    scaler = FeatureScaler(lo=chain[:-1], hi=chain[1:])
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    loaded, loaded_scaler = load_model(path)
    for mine, theirs in zip(model.weights + model.biases + [scaler.lo, scaler.hi],
                            loaded.weights + loaded.biases
                            + [loaded_scaler.lo, loaded_scaler.hi]):
        assert theirs.dtype == np.float64 and theirs.flags.writeable
        assert np.array_equal(mine.view(np.int64), theirs.view(np.int64))


def test_checkpoint_rejects_stray_optimizer_header(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    lines = path.read_text().splitlines()
    bad = _write_lines(tmp_path / "bad.txt",
                       lines[:4] + ["learning_rate=nan"] + lines[4:])
    with pytest.raises(CheckpointError, match="learning_rate"):
        load_model(bad)


def test_checkpoint_rejects_stray_moment_block(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    lines = path.read_text().splitlines()
    bad = _write_lines(tmp_path / "bad.txt",
                       lines + ["#block mb1 4", "0.0,0.0,0.0,0.0"])
    with pytest.raises(CheckpointError, match="mb1"):
        load_model(bad)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("#something-else v9\n")
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "cut.txt")


def test_checkpoint_rejects_tampered_dims(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    text = path.read_text().replace("dims=6,5,4", "dims=6,9,4")
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "bad.txt")


def test_checkpoint_rejects_foreign_layout_version(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    text = path.read_text().replace("layout_version=1", "layout_version=2")
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(CheckpointError, match="layout"):
        load_model(tmp_path / "bad.txt")


def test_checkpoint_rejects_garbled_block_header(tmp_path):
    model, scaler = _trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(path, model, scaler)
    text = path.read_text().replace("#block W0 ", "#junk W0 ", 1)
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "bad.txt")


# ---------------------------------------------------------------------------
# end-to-end inference guardrails


def test_infer_is_deterministic(cfg):
    scen = cfg.scenario
    scaler = FeatureScaler.from_scenario(scen)
    model = init_model((feature_dim(scen.num_subtasks), 16, 12), seed=5)
    library = make_library(scen, seed=42)
    from satedge.scenario import episode_state

    state = episode_state(scen, seed=31, episode=0, library=library)
    first = infer(model, scaler, state)
    second = infer(model, scaler, state)
    assert first == second
    completion_time(state, first)


def test_infer_rejects_wrong_feature_width(cfg):
    scen = cfg.scenario
    scaler = FeatureScaler.from_scenario(scen)
    model = init_model((10, 16, 12), seed=5)
    state, = stream_blocks(scen, 1, 1)[0].states
    with pytest.raises(CheckpointError):
        infer(model, scaler, state)


def test_infer_rejects_wrong_output_width(cfg):
    scen = cfg.scenario
    scaler = FeatureScaler.from_scenario(scen)
    model = init_model((feature_dim(scen.num_subtasks), 16, 4), seed=5)
    state, = stream_blocks(scen, 1, 1)[0].states
    with pytest.raises(CheckpointError):
        infer(model, scaler, state)
