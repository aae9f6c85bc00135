"""write_dataset writes the bytes of conftest.reference_write_dataset.

The writer spells each distinct float64 bit pattern once per block of
BLOCK_STATES records and copies the spelling into every field that holds
it; the reference spells every field on its own. The two must agree on
every value repr() spells in its own way: -0.0 next to 0.0, subnormals,
and both sides of each switch between positional and exponent notation.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satedge.config import default_config
from satedge.evaluator import BLOCK_STATES
from satedge.neural import feature_dim
from satedge.oracle import Demonstrations, read_dataset, write_dataset

from conftest import reference_write_dataset

# repr() switches to exponent notation below 1e-04 and from 1e16 on
SPELLINGS = {
    0.0: "0.0", -0.0: "-0.0", 5e-324: "5e-324", 1e-05: "1e-05", 0.0001: "0.0001",
    1e16: "1e+16", 1e15: "1000000000000000.0", 9999999999999998.0: "9999999999999998.0",
    2.2250738585072014e-308: "2.2250738585072014e-308",
    1.7976931348623157e308: "1.7976931348623157e+308",
}
_SPECIAL = [v for value in SPELLINGS for v in (value, -value)]


def _hand_built() -> Demonstrations:
    """600 default-width rows across three blocks, with columns of every
    cardinality the encoder makes and the values that repr() spells in its
    own way."""
    rows, num_subtasks = 600, default_config().scenario.num_subtasks
    rng = np.random.default_rng(28)
    features = rng.random((rows, feature_dim(num_subtasks)))  # all distinct
    features[:, 1] = rng.integers(0, 31, rows) / 31  # a popularity-like column
    features[:, 2] = 0.5  # a constant
    features[:, 3] = rng.choice(_SPECIAL, rows)  # in every block
    features[10:12, 4] = -0.0, 0.0  # both zeros in one column of one block
    features[BLOCK_STATES:, 5] = features[:rows - BLOCK_STATES, 5]  # repeated across blocks
    opt_reward = rng.random(rows)
    opt_reward[:len(_SPECIAL)] = _SPECIAL
    return Demonstrations(np.arange(rows) * 3 + 1, features,
                          rng.integers(0, 2, (rows, 2 * num_subtasks)), opt_reward)


def test_write_dataset_matches_the_field_by_field_reference(tmp_path):
    cfg = default_config().scenario
    demos = _hand_built()
    assert len(demos) > 2 * BLOCK_STATES
    ours, reference = tmp_path / "ours.txt", tmp_path / "reference.txt"
    write_dataset(ours, demos, cfg)
    reference_write_dataset(reference, demos, cfg)
    assert ours.read_bytes() == reference.read_bytes()

    lines = ours.read_text().splitlines()
    assert [line.split(",")[5] for line in lines[11:13]] == ["-0.0", "0.0"]
    fields = {field for line in lines[1:] for field in line.split(",")[1:-2]}
    assert set(SPELLINGS.values()) | set(map(repr, _SPECIAL)) <= fields
    _, reread = read_dataset(ours)
    assert np.array_equal(reread.features.view(np.int64), demos.features.view(np.int64))


def test_write_dataset_on_no_rows_writes_the_header_alone(tmp_path):
    cfg = default_config().scenario
    empty = _hand_built().take(slice(0, 0))
    ours, reference = tmp_path / "ours.txt", tmp_path / "reference.txt"
    write_dataset(ours, empty, cfg)
    reference_write_dataset(reference, empty, cfg)
    assert ours.read_bytes() == reference.read_bytes()
    assert len(ours.read_text().splitlines()) == 1


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.data_too_large, HealthCheck.too_slow])
@given(num_subtasks=st.integers(1, 3), rows=st.integers(1, BLOCK_STATES + 20),
       pool=st.lists(st.sampled_from(_SPECIAL) | _FINITE, min_size=1, max_size=40),
       data=st.data())
def test_write_dataset_matches_the_reference_on_random_arrays(tmp_path, num_subtasks, rows,
                                                               pool, data):
    """A few values repeated through many fields, as the encoder's columns
    repeat: the pool, cycled in row-major order, fills every block."""
    cfg = replace(default_config().scenario, num_subtasks=num_subtasks)
    demos = Demonstrations(
        data.draw(arrays(np.int64, rows, elements=st.integers(0, 2**62))),
        np.resize(np.array(pool), (rows, feature_dim(num_subtasks))),
        data.draw(arrays(np.intp, (rows, 2 * num_subtasks), elements=st.integers(0, 1))),
        data.draw(arrays(np.float64, rows, elements=_FINITE)))
    ours, reference = tmp_path / "ours.txt", tmp_path / "reference.txt"
    write_dataset(ours, demos, cfg)
    reference_write_dataset(reference, demos, cfg)
    assert ours.read_bytes() == reference.read_bytes()
