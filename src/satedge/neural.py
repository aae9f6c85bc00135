"""Plain-numpy MLP policy head: feature encoding, training math, decoding.

Forward pass, backprop, and Adam are written out explicitly so the
training path carries no framework dependency and stays reproducible
down to the bit. The output layer is 2*|V| sigmoids in the blocked
label layout: all offload bits first, then all cache bits.

encode_states is the one feature encoder: raw_features fills each Tables
block's rows column by column from its columns, and encode_states scales
them in one call; the hit and popularity features come from the block's
hits and delta, each state's own cache's.
encode_state, decode_actions and infer are the one-state forms, each on
its state's block of one.

An MLPModel is the trained policy and nothing else. Adam's moments,
step count and hyperparameters live in an AdamState that exists only
while training runs, so a checkpoint holds the network and its feature
scaler, never optimizer state. The AdamState is also the run's training
workspace, allocated once: the parameters, gradients and moments are
views into flat float64 rows that gradients(..., out=) and adam_step
write in place, and forward(..., out=) runs a loss pass in two ping-pong
buffers from forward_workspace, whose other buffer holds cross_entropy's
scratch. Without out or scratch, each function runs the same arithmetic on
buffers it allocates, so both give the same bits.
save_model writes checkpoint v3: a text header, and each weight block as
the base64 of its little-endian float64 bytes, so load_model gives back
the saved bits without parsing a decimal.
"""

from __future__ import annotations

import binascii
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .caching import request_probability, zipf_pmf
from .channel import link_rate, snr_from_db
from .config import ScenarioConfig, TrainConfig, orbit_params
from .evaluator import NEAR, ActionMatrix, EpisodeState, Tables, label_picks
from .geometry import earth_central_angle, relative_angular_velocity

log = logging.getLogger(__name__)

LAYOUT_VERSION = 1
GLOBAL_FEATURES = 6  # t_c, r_fh, r_bh, d_vs, d_sg, f_m
SUBTASK_FEATURES = 8  # zeta, d_in, d_out, rho, is_compute, is_download, hit, popularity
HIT_FEATURES = slice(GLOBAL_FEATURES + 6, None, SUBTASK_FEATURES)  # each sub-task's hit

CLIP_EPS = 1e-12  # probability clip inside the loss


class CheckpointError(ValueError):
    """Unreadable or incompatible model checkpoint."""


def feature_dim(num_subtasks: int) -> int:
    return GLOBAL_FEATURES + SUBTASK_FEATURES * num_subtasks


@dataclass
class FeatureScaler:
    """Min-max feature normalization with declared ranges.

    Values outside a range are clamped, and each call that clamps logs how
    many; a clamp usually means the scaler came from a different scenario
    config than the episodes did.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if not np.all(self.hi > self.lo):
            raise ValueError("every feature range needs hi > lo")

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Scale one feature vector, or an N x F batch of them row by row.

        A batch logs one warning, with the clamps of all its rows.
        """
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape[-1:] != self.lo.shape or raw.ndim > 2:
            raise ValueError(f"expected {self.lo.shape[0]} features, got {raw.shape}")
        outside = int(np.count_nonzero((raw < self.lo) | (raw > self.hi)))
        if outside:
            log.warning("clamped %d feature(s) outside declared ranges", outside)
        return (np.clip(raw, self.lo, self.hi) - self.lo) / (self.hi - self.lo)

    @classmethod
    def from_scenario(cls, cfg: ScenarioConfig) -> "FeatureScaler":
        """Ranges wide enough for anything the scenario generator emits."""
        if cfg.coverage_mode == "fixed":
            t_c_hi = 2.0 * cfg.coverage_s
        else:
            params = orbit_params(cfg)
            t_c_hi = earth_central_angle(params) / relative_angular_velocity(params)
        snr_hi_fh = snr_from_db(cfg.snr_fh_db + cfg.snr_jitter_db)
        snr_hi_bh = snr_from_db(cfg.snr_bh_db + cfg.snr_jitter_db)
        # attenuation 1.0 keeps the range valid across rain sweeps
        rate_fh_hi = link_rate(1.0, cfg.bandwidth_fh_hz, snr_hi_fh)
        rate_bh_hi = link_rate(1.0, cfg.bandwidth_bh_hz, snr_hi_bh)
        lo = [0.0] * GLOBAL_FEATURES
        hi = [t_c_hi, rate_fh_hi, rate_bh_hi,
              max(2.0 * cfg.prop_vs_s, 1e-6), max(2.0 * cfg.prop_sg_s, 1e-6),
              2.0 * cfg.cpu_rate_hz]
        pop_hi = request_probability(1, cfg.zipf_delta, cfg.num_ranks)
        sub_lo = [0.0] * SUBTASK_FEATURES
        sub_hi = [cfg.rho_max * cfg.size_max_bytes, cfg.size_max_bytes,
                  cfg.size_max_bytes, cfg.rho_max, 1.0, 1.0, 1.0, pop_hi]
        for _ in range(cfg.num_subtasks):
            lo += sub_lo
            hi += sub_hi
        return cls(lo=np.array(lo), hi=np.array(hi))


def _popularity(block: Tables) -> np.ndarray:
    """The N x V Zipf request probability of each output rank under its own
    state's skew (request_probability over the block's R ranks), 0.0 where
    the rank is 0 (no output)."""
    num_ranks = block.placement.shape[1] - 1
    deltas, which = np.unique(block.delta, return_inverse=True)
    pmf = np.zeros((len(deltas), 1 + num_ranks))
    for row, delta in zip(pmf, deltas.tolist()):
        row[1:] = zipf_pmf(delta, num_ranks)
    return pmf[which[:, None], block.rank]


def raw_features(block: Tables, hits, out: np.ndarray) -> np.ndarray:
    """out, N x F, filled with the block's unscaled feature rows at the
    N x V hits given; HIT_FEATURES picks a row's hit features.

    Layout v1: [t_c, r_fh, r_bh, d_vs, d_sg, f_m] then per sub-task
    [zeta, d_in, d_out, rho, is_compute, is_download, hit, popularity].
    Upload encodes as (0, 0) on the category bits; popularity is the
    Zipf request probability of the output rank, 0 when there is none.
    Every value but the hit and popularity is a copy of a column of the
    block; popularity comes from its delta, so no state is read.
    """
    out[:, :GLOBAL_FEATURES] = block.links
    # a view of the rows' sub-task features; a width that does not fit V
    # sub-tasks raises ValueError here
    sub = out[:, GLOBAL_FEATURES:].reshape(*block.code.shape, SUBTASK_FEATURES)
    for k, column in enumerate((block.zeta, block.d_in, block.d_out, block.rho)):
        sub[..., k] = column
    sub[..., 4] = block.code == 2
    sub[..., 5] = block.code == 1
    sub[..., 6] = hits
    sub[..., 7] = _popularity(block)
    return out


def encode_states(blocks: Sequence[Tables], scaler: FeatureScaler) -> np.ndarray:
    """raw_features of the blocks' states at their own hits, min-max scaled in one call."""
    raw = np.empty((sum(map(len, blocks)), scaler.lo.shape[0]))
    start = 0
    for block in blocks:
        raw_features(block, block.hits, raw[start:start + len(block)])
        start += len(block)
    return scaler.transform(raw)


def encode_state(state: EpisodeState, scaler: FeatureScaler) -> np.ndarray:
    """One state's feature vector: encode_states on a block of one."""
    return encode_states([Tables([state])], scaler)[0]


@dataclass
class MLPModel:
    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int


def init_model(dims: tuple[int, ...], seed: int) -> MLPModel:
    """Glorot-uniform weights, zero biases."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"need at least input and output dims, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(dims=tuple(dims), weights=weights, biases=biases, seed=seed)


@dataclass
class AdamState:
    """Adam's state and the training workspace for one run; never saved with the model.

    adam_state allocates the workspace once: flat holds the parameters, the
    gradients, m and v as four flat float64 rows, each laid out as all
    weights, then all biases, plus two scratch rows. params (the model's
    weights and biases), grad_w, grad_b, m and v are per-parameter views of
    those rows, so gradients(..., out=(grad_w, grad_b)) and adam_step write
    in place and a training step allocates no parameter-sized array.
    """

    learning_rate: float
    beta1: float
    beta2: float
    eps: float
    flat: np.ndarray  # 6 x P: parameters, gradients, m, v, two scratch rows
    params: list[np.ndarray]
    grad_w: list[np.ndarray]
    grad_b: list[np.ndarray]
    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0


def _views(row: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of a flat row, reshaped to shapes."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(row[start:stop].reshape(shape))
        start = stop
    return views


def adam_state(model: MLPModel, cfg: TrainConfig) -> AdamState:
    """Zero moments shaped like the model, hyperparameters from cfg.

    The model's weights and biases move into the workspace: afterwards
    they are views of opt.flat's first row, holding the same values.
    """
    params = model.weights + model.biases
    shapes = [np.shape(p) for p in params]
    flat = np.zeros((6, sum(map(math.prod, shapes))))
    views, grads, m, v = (_views(row, shapes) for row in flat[:4])
    for view, p in zip(views, params):
        view[...] = p
    layers = len(model.weights)
    model.weights, model.biases = views[:layers], views[layers:]
    return AdamState(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps,
                     flat=flat, params=views, grad_w=grads[:layers],
                     grad_b=grads[layers:], m=m, v=v)


def _sigmoid(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The logistic function of z, in place, with e = exp(-|z|) in scratch:
    1 / (1 + e) where z >= 0 and e / (1 + e) below, so exp never overflows.
    -|z| is -z on one side and z on the other, so each element gets the bits
    of the branch that covers it."""
    pos = z >= 0
    np.abs(z, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.add(scratch, 1.0, out=z)
    np.copyto(scratch, 1.0, where=pos)
    np.divide(scratch, z, out=z)
    return z


def _layer(a: np.ndarray, w: np.ndarray, b: np.ndarray, z: np.ndarray,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """z = a @ w + b, then ReLU in place; the output sigmoid when given scratch."""
    np.matmul(a, w, out=z)
    z += b
    return np.maximum(z, 0.0, out=z) if scratch is None else _sigmoid(z, scratch)


def forward_workspace(model: MLPModel, rows: int) -> np.ndarray:
    """The two ping-pong buffers forward needs for up to rows rows.

    Each buffer also holds cross_entropy's scratch for rows rows of output,
    so the buffer a pass's probabilities are not in can serve as it.
    """
    width = max(max(w.shape[1] for w in model.weights), 3 * model.weights[-1].shape[1])
    return np.empty((2, rows * width))


def forward(model: MLPModel, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Output probabilities; accepts one vector or a batch (rows).

    Layer k writes its rows x width activations into buffer k % 2 of out, a
    forward_workspace for at least x's rows, reading layer k - 1's from the
    other buffer. With out given the pass allocates no float array (only the
    sigmoid's sign mask), and the result is a view of out that the next pass
    through it overwrites; without it, the buffers are allocated for this pass.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = np.atleast_2d(x)
    rows = a.shape[0]
    if out is None:
        out = forward_workspace(model, rows)
    elif out.shape[1] < rows * max(w.shape[1] for w in model.weights):
        raise ValueError(f"workspace {out.shape} is too small for {rows} rows")
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        size = rows * w.shape[1]
        z = out[k % 2, :size].reshape(rows, w.shape[1])
        # the other buffer holds at most this layer's input, which the matmul has read
        scratch = out[1 - k % 2, :size].reshape(z.shape) if k == last else None
        a = _layer(a, w, b, z, scratch)
    return a[0] if single else a


def cross_entropy(probs: np.ndarray, labels: np.ndarray,
                  scratch: np.ndarray | None = None) -> float:
    """Mean binary cross-entropy over every output component.

    Probabilities are clipped to [1e-12, 1 - 1e-12] before the logs. The
    temporaries live in three probability-sized slices of scratch, a flat
    float64 array of at least 3 * probs.size values that does not overlap
    probs or labels (forward_workspace's buffer that forward's result is not
    in), so the call allocates no probability-sized array; without scratch
    they are allocated for the call. The operations and their order are those
    of -(y * log(p) + (1 - y) * log(1 - p)), so both give the same bits.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if probs.shape != y.shape:
        raise ValueError(f"probs {probs.shape} and labels {y.shape} must match")
    n = probs.size
    if scratch is None:
        scratch = np.empty(3 * n)
    elif scratch.shape[0] < 3 * n:
        raise ValueError(f"scratch {scratch.shape} is too small for 3 x {n} values")
    p, log_p, log_q = scratch[:3 * n].reshape(3, *probs.shape)
    np.clip(probs, CLIP_EPS, 1.0 - CLIP_EPS, out=p)
    np.log(p, out=log_p)
    log_p *= y  # y * log(p)
    np.subtract(1.0, p, out=log_q)
    np.log(log_q, out=log_q)
    np.subtract(1.0, y, out=p)  # p is read for the last time above
    p *= log_q  # (1 - y) * log(1 - p)
    log_p += p
    return float(np.mean(np.negative(log_p, out=log_p)))


def gradients(model: MLPModel, x: np.ndarray, labels: np.ndarray,
              out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of cross_entropy(forward(x), labels) w.r.t. every parameter.

    Returns (grad_w, grad_b), written into out's arrays when out is given
    (an AdamState's grad_w and grad_b), else into fresh ones.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    if out is None:
        out = ([np.empty(np.shape(w)) for w in model.weights],
               [np.empty(np.shape(b)) for b in model.biases])
    grad_w, grad_b = out
    last = len(model.weights) - 1
    acts = [x]  # every layer's activations, kept for the backward pass
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.empty((len(x), w.shape[1]))
        acts.append(_layer(acts[-1], w, b, z, np.empty_like(z) if k == last else None))
    # sigmoid + BCE collapse: dL/dz = (p - y) / N for the mean over all N components
    delta = (acts[-1] - y) / y.size
    for layer in range(last, -1, -1):
        np.matmul(acts[layer].T, delta, out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta *= acts[layer] > 0.0
    return grad_w, grad_b


def adam_step(model: MLPModel, opt: AdamState, grad_w: list[np.ndarray],
              grad_b: list[np.ndarray]) -> MLPModel:
    """One bias-corrected Adam update of model and opt, in place; step_count bumps first.

    model is the one opt was built for. Gradients other than opt.grad_w and
    opt.grad_b are copied into them. Each elementwise step is one pass over
    the flat rows: m = m*b1 + (1-b1)*g, v = v*b2 + (1-b2)*(g*g), then
    p -= lr*(m/c1) / (sqrt(v/c2) + eps).
    """
    params, given, views = model.weights + model.biases, grad_w + grad_b, opt.grad_w + opt.grad_b
    if len(params) != len(opt.params) or any(p is not q for p, q in zip(params, opt.params)):
        raise ValueError("adam_step needs the model that adam_state was built for")
    if len(given) != len(views):
        raise ValueError(f"expected {len(views)} gradient arrays, got {len(given)}")
    for g, view in zip(given, views):
        if g is not view:
            view[...] = g
    p, g, m, v, s, t = opt.flat
    opt.step_count += 1
    c1 = 1.0 - opt.beta1 ** opt.step_count
    c2 = 1.0 - opt.beta2 ** opt.step_count
    m *= opt.beta1
    m += np.multiply(g, 1.0 - opt.beta1, out=s)
    v *= opt.beta2
    np.multiply(g, g, out=s)
    s *= 1.0 - opt.beta2
    v += s
    np.divide(m, c1, out=s)
    s *= opt.learning_rate
    np.divide(v, c2, out=t)
    np.sqrt(t, out=t)
    t += opt.eps
    s /= t
    p -= s
    return model


def decode_picks(probs: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Threshold an N x 2V block of output probabilities at 0.5 and project.

    pattern holds the N x V FEASIBLE patterns. A thresholded pair outside
    its feasible set is replaced by the feasible pair at the smallest
    Hamming distance; ties fall to the smaller (offload, cache) pair, as
    in the baselines' projection. Returns N x V PAIRS indices, all
    feasible.
    """
    n, v = pattern.shape
    if probs.shape != (n, 2 * v):
        raise ValueError(f"expected {n} x {2 * v} probabilities, got {probs.shape}")
    return NEAR[pattern, label_picks(probs > 0.5)]


def decode_actions(probs: np.ndarray, state: EpisodeState) -> ActionMatrix:
    """One state's decode_picks, as an ActionMatrix; it always validates."""
    probs = np.asarray(probs, dtype=np.float64)[None]
    return ActionMatrix.from_picks(decode_picks(probs, Tables([state]).pattern)[0].tolist())


# ---------------------------------------------------------------------------
# checkpoint format: versioned text header, exact float64 blocks, fixed block order
#
# The header's integers are written as str() writes them and its scaler rows
# as repr() writes each float. Each W{k}/b{k} block is its `#block {tag}
# {shape}` line, then one line of standard padded base64 (RFC 4648) of its
# values as little-endian IEEE-754 float64 in C order: the very bits, so no
# value is formatted or parsed, and each block has one accepted spelling.

MODEL_MAGIC = "#satedge-model v3"
_HEADER_KEYS = ("layout_version", "seed", "dims", "scaler_lo", "scaler_hi")


def _fmt_row(row: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in row)


def _encode_block(values: np.ndarray) -> str:
    raw = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _decode_block(line: str, shape: tuple[int, ...]) -> np.ndarray:
    """The finite float64 values of one block line, shaped. Raises ValueError
    unless line is the one spelling _encode_block writes: a2b_base64 skips
    characters outside the alphabet and forgives pad bits, re-encoding does not."""
    raw = binascii.a2b_base64(line)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes, expected 8 per value of shape {shape}")
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != line:
        raise ValueError("not the base64 spelling of its bytes: a stray character, "
                         "whitespace, padding or pad bits")
    values = np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def save_model(path: str | Path, model: MLPModel, scaler: FeatureScaler) -> None:
    """Write a v3 checkpoint: shape, seed, layout, scaler ranges, weights, biases.

    No optimizer state is written. Reload then re-save is byte-identical.
    What load_model would refuse raises ValueError, naming the first bad
    block, before anything is written.
    """
    dims, layers = model.dims, len(model.dims) - 1
    if layers < 1 or min(dims) < 1 or (len(model.weights), len(model.biases)) != (layers,) * 2:
        raise ValueError(f"dims {dims} need two or more widths >= 1 and a weight and a bias "
                         f"per layer, got {len(model.weights)} and {len(model.biases)}")
    blocks = [("scaler", np.stack((scaler.lo, scaler.hi)), (2, dims[0]))]
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        blocks += [(f"W{k}", model.weights[k], (fan_in, fan_out)),
                   (f"b{k}", model.biases[k], (fan_out,))]
    for tag, values, shape in blocks:
        if np.shape(values) != shape or not np.isfinite(values).all():
            raise ValueError(f"block {tag}: needs {shape} finite values for dims {dims}, "
                             f"got shape {np.shape(values)}")
    lines = [
        MODEL_MAGIC,
        f"layout_version={LAYOUT_VERSION}",
        f"seed={model.seed}",
        "dims=" + ",".join(str(d) for d in dims),
        "scaler_lo=" + _fmt_row(scaler.lo),
        "scaler_hi=" + _fmt_row(scaler.hi),
    ]
    for tag, values, shape in blocks[1:]:
        lines += [f"#block {tag} " + "x".join(map(str, shape)), _encode_block(values)]
    Path(path).write_text("\n".join(lines) + "\n")


# float(), int() and np.loadtxt forgive an underscore or whitespace in a
# number; no writer emits either there
_STRAY = re.compile(r"[_\s]")


def stray_row(rows: list[str]) -> int | None:
    """Index of the first row that is blank or holds an underscore or
    whitespace, or None. Two C-speed tests cover all the rows at once, a
    substring search and a whitespace split; the regex runs row by row
    only once they find something."""
    text = ",".join(rows)
    if "_" not in text and text.split(None, 1) == [text] and "" not in rows:
        return None
    return next((i for i, row in enumerate(rows) if not row or _STRAY.search(row)), None)


def canonical_int(token: str) -> int:
    """int(token), refusing any spelling str() does not write: '03', '+3', '0_3', ' 3'."""
    value = int(token)
    if str(value) != token:
        raise ValueError(f"{token!r} is not written as str() writes an integer")
    return value


def _repr_row(row: str) -> np.ndarray:
    """The finite floats of a comma-separated row, refusing any spelling
    repr() does not write: '+0.5', '1E5', '0.50', '0_5', ' 0.5'."""
    tokens = row.split(",")
    values = [float(t) for t in tokens]
    bad = next((t for t, v in zip(tokens, values) if repr(v) != t), None)
    if bad is not None:
        raise ValueError(f"{bad!r} is not written as repr() writes a float")
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return np.array(values)


def load_model(path: str | Path) -> tuple[MLPModel, FeatureScaler]:
    """Read a v3 checkpoint in exactly the layout save_model writes.

    That is MODEL_MAGIC, the _HEADER_KEYS lines in order, then for each
    layer k a block `#block W{k} {a}x{b}` and a block `#block b{k} {b}`,
    shapes taken from dims, each followed by its one base64 line, then the
    end of the file. Integers and scaler floats are spelled as str() and
    repr() spell them, and each block is decoded by one a2b_base64 call.
    Anything else raises CheckpointError naming the file, and the line
    where the layout breaks.
    """
    try:  # a v3 file is ASCII throughout
        lines = Path(path).read_bytes().decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not a v3 model checkpoint: {exc}") from exc
    if not lines or lines[0] != MODEL_MAGIC:
        raise CheckpointError(f"{path}: not a v3 model checkpoint; v1 and v2 files are "
                              "no longer read, re-run `satedge train`")

    def unexpected(at: int, what: str) -> CheckpointError:
        got = repr(lines[at]) if at < len(lines) else "the end of the file"
        return CheckpointError(f"{path}:{at + 1}: expected {what}, got {got}")

    for at, key in enumerate(_HEADER_KEYS, start=1):
        if at >= len(lines) or not lines[at].startswith(f"{key}="):
            raise unexpected(at, f"a {key}= line")
    header = [line.partition("=")[2] for line in lines[1:1 + len(_HEADER_KEYS)]]
    try:
        layout, seed = canonical_int(header[0]), canonical_int(header[1])
        dims = tuple(canonical_int(d) for d in header[2].split(","))
        scaler = FeatureScaler(_repr_row(header[3]), _repr_row(header[4]))
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header: {exc}") from exc
    if layout != LAYOUT_VERSION:
        raise CheckpointError(
            f"{path}: feature layout v{layout}, this build expects v{LAYOUT_VERSION}")
    if len(dims) < 2 or min(dims) < 1 or scaler.lo.shape != dims[:1]:
        raise CheckpointError(f"{path}: dims {dims} need two or more widths >= 1, "
                              f"the first matching the scaler's {scaler.lo.shape[0]}")
    at = 1 + len(_HEADER_KEYS)
    weights, biases = [], []
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        for tag, shape, params in ((f"W{k}", (fan_in, fan_out), weights),
                                   (f"b{k}", (fan_out,), biases)):
            head = f"#block {tag} " + "x".join(map(str, shape))
            if lines[at:at + 1] != [head]:
                raise unexpected(at, f"{head!r}, the block and shape that dims {dims} give")
            if at + 1 == len(lines):
                raise unexpected(at + 1, f"the base64 line of block {tag}")
            try:
                params.append(_decode_block(lines[at + 1], shape))
            except ValueError as exc:
                raise CheckpointError(f"{path}:{at + 2}: block {tag}: {exc}") from exc
            at += 2
    if at < len(lines):
        raise unexpected(at, "the end of the file")
    return MLPModel(dims=dims, weights=weights, biases=biases, seed=seed), scaler


def check_policy(model: MLPModel, num_subtasks: int) -> None:
    """Raise CheckpointError unless model fits chains of num_subtasks."""
    n_in, n_out = feature_dim(num_subtasks), 2 * num_subtasks
    if (model.dims[0], model.dims[-1]) != (n_in, n_out):
        raise CheckpointError(f"model dims {model.dims} do not fit {num_subtasks} "
                              f"sub-tasks ({n_in} features in, {n_out} bits out)")


def infer(model: MLPModel, scaler: FeatureScaler, state: EpisodeState) -> ActionMatrix:
    """Encode, forward, decode on the state's block of one; checks dimensions line up."""
    check_policy(model, len(state.task))
    block = Tables([state])
    picks = decode_picks(forward(model, encode_states([block], scaler)), block.pattern)
    return ActionMatrix.from_picks(picks[0].tolist())
