"""File readers reject malformed input with a typed error.

read_dataset raises ValueError, load_model raises CheckpointError and
load_config raises ConfigError for every malformed file, never a stray
KeyError, IndexError or UnicodeDecodeError, and whatever they do accept
is finite and usable: every feature row has the declared width, a loaded
model runs a forward pass, and a loaded config validates.
"""

import base64
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satedge.cli import main
from satedge.config import ConfigError, default_config, load_config, validate_config
from satedge.neural import (CheckpointError, FeatureScaler, adam_state, adam_step,
                            forward, gradients, init_model, load_model, save_model)
from satedge.oracle import build_dataset, read_dataset, write_dataset


@pytest.fixture(scope="module")
def dataset_lines(tmp_path_factory):
    cfg = default_config()
    path = tmp_path_factory.mktemp("valid") / "dataset.txt"
    write_dataset(path, build_dataset(cfg.scenario, 3, 1), cfg.scenario)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def model_lines(tmp_path_factory):
    model = init_model((6, 5, 4), seed=3)
    rng = np.random.default_rng(4)
    adam_step(model, adam_state(model, default_config().train),
              *gradients(model, rng.uniform(size=(8, 6)),
                         rng.integers(0, 2, size=(8, 4)).astype(float)))
    path = tmp_path_factory.mktemp("valid") / "model.txt"
    save_model(path, model, FeatureScaler(lo=np.zeros(6), hi=np.ones(6)))
    return path.read_text().splitlines()


_JUNK = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e999", "0", "-1", "2", "abc", "=", ",",
                     "x", "1x", "1x1x2", "0x3", "#block", "#block W0 2x5",
                     "features=", "subtasks=0", "layout=1", "dims=5"]),
    st.text(alphabet="0123456789.,=x#-e nai", max_size=12),
)


# lone surrogates encode (surrogateescape) to bytes that are not UTF-8
_CONFIG_JUNK = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "0", "0.0", "1e999", "1.5", "=", "#",
                     "orbit", "fixed", "mpc", "x", "lambda", "num_subtasks",
                     "adam_beta1", "coverage_mode", "\udcff", "\udcc3"]),
    st.text(alphabet="0123456789.=#-e naiorbxf_", max_size=12),
)

_CONFIG_LINES = [
    "# a valid config touching every value type and an alias",
    "num_subtasks = 4",
    "size_max_bytes = 400e3  # bytes",
    "coverage_mode = orbit",
    "lambda = 0.7",
    "adam_beta1 = 0.8",
    "adam_eps = 1e-7",
    "persistent_eviction = mpc",
    "",
    "dataset_episodes = 30",
]


@st.composite
def _mutated(draw, lines, junk=_JUNK):
    """A copy of lines with one to three edits: a token, a line, or a cut."""
    lines = list(lines)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=max(len(lines) - 1, 0)))
        op = draw(st.sampled_from(["token", "token", "line", "drop", "dup", "cut"]))
        if not lines:
            lines = [draw(junk)]
        elif op == "token":
            sep = draw(st.sampled_from([",", " ", "=", "x"]))
            pieces = lines[i].split(sep)
            j = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
            pieces[j] = draw(junk)
            lines[i] = sep.join(pieces)
        elif op == "line":
            lines[i] = draw(junk)
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            lines = lines[:i]
    return lines


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(data=st.data())
def test_read_dataset_fuzz_raises_only_value_error(tmp_path, dataset_lines, data):
    path = _write(tmp_path, "d.txt", data.draw(_mutated(dataset_lines)))
    try:
        header, demos = read_dataset(path)
    except ValueError:
        return
    n_features = int(header["features"])
    for demo in demos:
        assert demo.features.shape == (n_features,)
        assert np.isfinite(demo.features).all() and np.isfinite(demo.opt_reward)
        assert len(demo.labels) == 2 * int(header["subtasks"])


@_FUZZ
@given(data=st.data())
def test_load_model_fuzz_raises_only_checkpoint_error(tmp_path, model_lines, data):
    path = _write(tmp_path, "m.txt", data.draw(_mutated(model_lines)))
    try:
        model, scaler = load_model(path)
    except CheckpointError:
        return
    out = forward(model, scaler.transform(scaler.lo))
    assert out.shape == (model.dims[-1],) and np.isfinite(out).all()


@_FUZZ
@given(data=st.data())
def test_load_config_fuzz_raises_only_config_error(tmp_path, data):
    lines = data.draw(_mutated(_CONFIG_LINES, _CONFIG_JUNK))
    path = tmp_path / "c.txt"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    validate_config(cfg)


@pytest.mark.parametrize("tail", [b"\xff", "\u00e9".encode()], ids=["not-utf8", "utf8-not-ascii"])
def test_non_ascii_model_is_checkpoint_error(tmp_path, model_lines, capsys, tail):
    path = tmp_path / "m.txt"
    path.write_bytes("\n".join(model_lines).encode() + tail + b"\n")
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: not a v3 model checkpoint: ")
    rc = main(["eval", "--policy", "docs", "--model", str(path), "--episodes", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 1 and capsys.readouterr().err.startswith("error:model:")


def test_config_fixture_is_valid(tmp_path):
    path = _write(tmp_path, "c.txt", _CONFIG_LINES)
    cfg = load_config(path)
    assert cfg.scenario.coverage_mode == "orbit" and cfg.train.adam_eps == 1e-7


def test_non_utf8_config_reports_config_error(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xff")
    rc = main(["coverage", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:config:") and "UTF-8" in err


def test_dataset_header_without_features_names_the_key(tmp_path):
    path = _write(tmp_path, "d.txt",
                  ["#satedge-dataset v1 config=abc layout=1 subtasks=1"])
    with pytest.raises(ValueError, match="features="):
        read_dataset(path)


def test_train_on_header_without_features_reports_invalid(tmp_path, capsys):
    path = _write(tmp_path, "d.txt",
                  ["#satedge-dataset v1 config=abc layout=1 subtasks=1"])
    rc = main(["train", "--dataset", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:invalid:") and "features=" in err


@pytest.mark.parametrize("tail, byte", [(b"\xff", "0xff"), ("\u00e9".encode(), "0xc3")],
                         ids=["not-utf8", "utf8-not-ascii"])
def test_non_ascii_dataset_names_the_file_and_line(tmp_path, dataset_lines, capsys, tail,
                                                   byte):
    path = tmp_path / "d.txt"  # the byte ends line 3, the second record
    path.write_bytes("\n".join(dataset_lines[:3]).encode() + tail + b"\n"
                     + "\n".join(dataset_lines[3:]).encode() + b"\n")
    named = f"{path}:3: byte {byte} is not ASCII"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        read_dataset(path)
    rc = main(["train", "--dataset", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1 and capsys.readouterr().err.startswith(f"error:invalid: {named}")


@pytest.mark.parametrize("field", [1, -1])  # a feature, then opt_reward
def test_dataset_rejects_nan(tmp_path, dataset_lines, field):
    parts = dataset_lines[1].split(",")
    parts[field] = "nan"
    path = _write(tmp_path, "d.txt", [dataset_lines[0], ",".join(parts)])
    with pytest.raises(ValueError, match="non-finite"):
        read_dataset(path)


def _with_record_field(lines, field, value):
    parts = lines[1].split(",")
    parts[field] = value
    return [lines[0], ",".join(parts)] + lines[2:]


@pytest.mark.parametrize("edit, where", [
    (lambda lines: [lines[0] + " stray"] + lines[1:], ":1: bad dataset header"),
    (lambda lines: [lines[0].replace("features=54", "features=5x4")] + lines[1:],
     ":1: bad dataset header"),
    (lambda lines: _with_record_field(lines, 0, "zero"), ":2: record 'zero'"),
    (lambda lines: _with_record_field(lines, 3, "abc"), ":2: record '0'"),
    (lambda lines: _with_record_field(lines, 0, str(2**63)), f":2: record '{2**63}'"),
    (lambda lines: _with_record_field(lines, 0, "-1"), ":2: record '-1': negative episode id"),
], ids=["header-token", "features-value", "episode-id", "feature", "episode-id-past-int64",
        "episode-id-negative"])
def test_dataset_errors_name_the_file_and_line(tmp_path, dataset_lines, edit, where):
    path = _write(tmp_path, "d.txt", edit(dataset_lines))
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{path}{where}")


@pytest.mark.parametrize("nan_line, width_line, reported", [
    (3, 4, ":3: record '1': non-finite value"),
    (3, 2, ":2: record '0': bad record width"),
])
def test_dataset_reports_its_first_faulty_line(tmp_path, dataset_lines, nan_line,
                                               width_line, reported):
    # records are checked finite as whole columns once parsed, yet a file
    # with two faults still names the earlier one
    lines = list(dataset_lines)
    parts = lines[nan_line - 1].split(",")
    parts[-1] = "nan"
    lines[nan_line - 1] = ",".join(parts)
    lines[width_line - 1] += ",0.5"
    path = _write(tmp_path, "d.txt", lines)
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{path}{reported}")



def _set(values: np.ndarray, at, value) -> np.ndarray:
    """A copy of values with values[at] = value."""
    values = values.copy()
    values[at] = value
    return values


# each writer refuses what its own reader refuses, before writing anything
@pytest.mark.parametrize("edit, named", [
    (lambda d: replace(d, labels=np.concatenate((d.labels, d.labels[:, :2]), axis=1)),
     "episode 0: 54 features and 14 label bits, expected 54 and 12"),
    (lambda d: replace(d, labels=_set(d.labels, (1, 0), 2)), "episode 1: "),
    (lambda d: replace(d, labels=d.labels.astype(float)), "episode 0: "),
    (lambda d: replace(d, opt_reward=_set(d.opt_reward, 1, np.nan)), "episode 1: "),
    (lambda d: replace(d, features=_set(d.features, (2, 7), np.inf)), "episode 2: "),
    (lambda d: replace(d, episode_id=_set(d.episode_id, 1, -1)), "episode -1: "),
], ids=["labels-2V+2-wide", "label-bit-2", "float-labels", "nan-opt-reward", "inf-feature",
        "negative-id"])
def test_write_dataset_refuses_what_read_dataset_refuses(tmp_path, edit, named):
    cfg = default_config()
    path = tmp_path / "dataset.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
        write_dataset(path, edit(build_dataset(cfg.scenario, 3, 1)), cfg.scenario)
    assert not path.exists()


@pytest.mark.parametrize("edit, named", [
    (lambda m, s: (replace(m, weights=[m.weights[0], _set(m.weights[1], (0, 2), np.nan)]), s),
     "block W1"),
    (lambda m, s: (m, FeatureScaler(s.lo[:-1], s.hi[:-1])), "block scaler"),
    (lambda m, s: (m, FeatureScaler(s.lo, _set(s.hi, 2, np.inf))), "block scaler"),
    (lambda m, s: (replace(m, biases=[m.biases[0][None], m.biases[1]]), s), "block b0"),
    (lambda m, s: (replace(m, weights=m.weights[:1], biases=m.biases[:1]), s), "dims"),
], ids=["nan-weight", "narrow-scaler", "inf-scaler", "bias-shape", "missing-layer"])
def test_save_model_refuses_what_load_model_refuses(tmp_path, edit, named):
    model, scaler = edit(init_model((6, 5, 4), seed=3),
                         FeatureScaler(lo=np.zeros(6), hi=np.ones(6)))
    path = tmp_path / "model.txt"
    with pytest.raises(ValueError, match=f"^{named}"):
        save_model(path, model, scaler)
    assert not path.exists()


def test_model_with_one_dim_and_no_blocks_is_rejected(tmp_path, model_lines):
    header = model_lines[:model_lines.index("#block W0 6x5")]
    lines = [line.replace("dims=6,5,4", "dims=6") for line in header]
    with pytest.raises(CheckpointError, match="dims"):
        load_model(_write(tmp_path, "m.txt", lines))


@pytest.mark.parametrize("old,new", [
    ("#block W0 6x5", "#block W0 1x1x2"),
    ("#block b0 5", "#block b0 0"),
])
def test_model_bad_block_shape_is_checkpoint_error(tmp_path, model_lines, old, new):
    lines = [new if line == old else line for line in model_lines]
    assert lines != model_lines
    with pytest.raises(CheckpointError, match="shape"):
        load_model(_write(tmp_path, "m.txt", lines))


def _block_values(line):
    """The float64 values a v3 block line spells, decoded with base64, not
    with the reader's own codec."""
    return np.frombuffer(base64.b64decode(line, validate=True), "<f8")


def _block_line(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _with_block_line(lines, block, edit):
    """A copy of lines with the base64 line under block header block
    replaced by edit(line), and that line's 1-based number."""
    i = lines.index(block) + 1
    lines = list(lines)
    lines[i] = edit(lines[i])
    return lines, i + 1


def test_model_unparsable_block_row_is_checkpoint_error(tmp_path, model_lines):
    # ';' is outside the base64 alphabet, which a2b_base64 would skip
    lines, at = _with_block_line(model_lines, "#block W0 6x5", lambda line: ";" + line[1:])
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:{at}: block W0: ")


def test_model_block_with_one_short_row_is_checkpoint_error(tmp_path, model_lines):
    # the line spells 29 values, a well-formed base64 of one value too few
    lines, at = _with_block_line(model_lines, "#block W0 6x5",
                                 lambda line: _block_line(_block_values(line)[:-1]))
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError, match="232 bytes, expected 8 per value of shape") as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:{at}: block W0: ")


def test_model_block_missing_its_last_row_is_checkpoint_error(tmp_path, model_lines):
    i = model_lines.index("#block W0 6x5") + 1  # W0's line, then b0's header
    lines = model_lines[:i] + model_lines[i + 1:]
    with pytest.raises(CheckpointError, match="W0"):
        load_model(_write(tmp_path, "m.txt", lines))


_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _flip_pad_bit(line):
    """line with the lowest bit of its last character before '=' flipped: a
    pad bit, so the line decodes to the same bytes under another spelling."""
    return line[:-2] + _BASE64[_BASE64.index(line[-2]) ^ 1] + "="


# W0 holds 30 values (240 bytes), so its line has no padding; b0 holds 5
# (40 bytes) and ends in '=='; b1 holds 4 (32 bytes) and ends in three
# characters and '=', the last of the three carrying 2 pad bits
@pytest.mark.parametrize("block, edit", [
    ("#block W0 6x5", lambda line: line[:100] + " " + line[100:]),
    ("#block W0 6x5", lambda line: line[:100] + "\n" + line[100:]),
    ("#block W0 6x5", lambda line: line[:101] + "\n" + line[101:]),
    ("#block b0 5", lambda line: line[:-1]),
    ("#block b0 5", lambda line: line[:-2]),
    ("#block W0 6x5", lambda line: line + "="),
    ("#block b1 4", lambda line: line + "="),
    ("#block b1 4", _flip_pad_bit),
    ("#block W0 6x5", lambda line: line[:-1]),
    ("#block W0 6x5", lambda line: _block_line(np.append(_block_values(line), 0.0))),
], ids=["stray-space", "broken-in-two", "broken-off-group", "one-pad-missing",
        "both-pads-missing", "extra-pad", "extra-pad-after-pad", "pad-bits",
        "one-char-short", "eight-extra-bytes"])
def test_model_block_has_one_spelling(tmp_path, model_lines, block, edit):
    lines, at = _with_block_line(model_lines, block, edit)
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:{at}: block {block.split()[1]}: ")


@pytest.mark.parametrize("bits", [0x7FF8000000000000, 0x7FF0000000000001,
                                  0x7FF0000000000000, 0xFFF0000000000000],
                         ids=["quiet-nan", "signalling-nan", "inf", "-inf"])
def test_model_block_with_a_non_finite_value_is_checkpoint_error(tmp_path, model_lines, bits):
    value = np.array([bits], dtype=np.uint64).view(np.float64)[0]
    lines, at = _with_block_line(model_lines, "#block W1 5x4",
                                 lambda line: _block_line(_set(_block_values(line), 7, value)))
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value) == f"{path}:{at}: block W1: non-finite value"


def _swap_w0_and_b0(lines):
    w0, b0 = lines.index("#block W0 6x5"), lines.index("#block b0 5")
    return lines[:w0] + lines[b0:b0 + 2] + lines[w0:b0] + lines[b0 + 2:]


@pytest.mark.parametrize("edit, line", [
    (lambda lines: lines[:3] + [lines[2]] + lines[3:], 4),
    (lambda lines: lines + ["#block b1 4", _block_line([7.0] * 4)], 15),
    (_swap_w0_and_b0, 7),
], ids=["second-seed", "second-b1", "b0-before-w0"])
def test_model_accepts_only_the_written_layout(tmp_path, model_lines, edit, line):
    path = _write(tmp_path, "m.txt", edit(model_lines))
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:{line}: expected ")


@pytest.mark.parametrize("edit", [
    lambda keys: keys + ["stream=2"],
    lambda keys: keys[:1] + keys,
    lambda keys: keys[::-1],
], ids=["stream-2", "config-twice", "reversed"])
def test_dataset_header_accepts_only_the_written_tokens(tmp_path, dataset_lines, edit):
    tokens = dataset_lines[0].split(" ")
    header = " ".join(tokens[:2] + edit(tokens[2:]))
    path = _write(tmp_path, "d.txt", [header] + dataset_lines[1:])
    with pytest.raises(ValueError, match="config= layout= subtasks= features=") as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{path}:1: bad dataset header")


@pytest.mark.parametrize("old, new", [
    ("dims=6,5,4", "dims=6, 5,4"),
    ("seed=3", "seed=0_3"),
    ("seed=3", "seed=03"),
    ("layout_version=1", "layout_version=+1"),
], ids=["dims-space", "seed-underscore", "seed-leading-zero", "layout-plus"])
def test_model_header_integers_are_spelled_as_written(tmp_path, model_lines, old, new):
    lines = [new if line == old else line for line in model_lines]
    assert lines != model_lines
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: bad header")


@pytest.mark.parametrize("block, value", [
    ("#block W0 6x5", "1_0.5"), ("#block W0 6x5", " 0.5"), ("#block b1 4", "0.5 "),
    ("#block W1 5x4", "0.5\t"),
])
def test_model_numbers_hold_no_underscore_or_whitespace(tmp_path, model_lines, block, value):
    # value is a spelling of 0.5 that float() forgives; the block's line
    # takes the place of the number in it
    lines, at = _with_block_line(model_lines, block, lambda line: value.replace("0.5", line))
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:{at}: block {block.split()[1]}: ")


def test_model_scaler_row_holds_no_whitespace(tmp_path, model_lines):
    lines = [line.replace("scaler_hi=", "scaler_hi= ") for line in model_lines]
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError, match="bad header"):
        load_model(path)


@pytest.mark.parametrize("spelling", ["+0.5", "1E5", "0.50"])
def test_model_scaler_values_are_spelled_as_repr_writes_them(tmp_path, model_lines, spelling):
    # np.loadtxt and float() take each of these; repr() writes none of them
    lines = [line.replace("scaler_hi=1.0,", f"scaler_hi={spelling},") for line in model_lines]
    assert lines != model_lines
    path = _write(tmp_path, "m.txt", lines)
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value) == \
        f"{path}: bad header: {spelling!r} is not written as repr() writes a float"


@pytest.mark.parametrize("edit, where", [
    (lambda lines: _with_record_field(lines, 1, "1_0.5"), ":2: record '0'"),
    (lambda lines: _with_record_field(lines, 1, " 0.5"), ":2: record '0'"),
    (lambda lines: lines[:2] + [lines[2] + " "], ":3: record '1'"),
    (lambda lines: _with_record_field(lines, 0, "0_0"), ":2: record '0_0'"),
    (lambda lines: _with_record_field(lines, 0, "00"), ":2: record '00'"),
    (lambda lines: [lines[0].replace("subtasks=6", "subtasks=06")] + lines[1:],
     ":1: bad dataset header"),
], ids=["feature-underscore", "feature-space", "reward-space", "id-underscore",
        "id-leading-zero", "header-leading-zero"])
def test_dataset_fields_are_spelled_as_written(tmp_path, dataset_lines, edit, where):
    path = _write(tmp_path, "d.txt", edit(dataset_lines))
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{path}{where}")

