import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satedge.channel import link_rate, snr_from_db, transmit_time
from satedge.evaluator import Tables

from conftest import GOLDEN_LINK, compute, make_state

# Calculator-pinned: 0.8 * 3e6 * log2(1 + 1000)
BACKHAUL_GOLDEN = 23921343.021206383


def test_snr_from_db():
    assert snr_from_db(0.0) == 1.0
    assert abs(snr_from_db(30.0) - 1000.0) < 1e-9


def test_link_rate_unit_snr():
    # log2(2) = 1 makes the arithmetic exact
    assert link_rate(0.8, 2e6, 1.0) == 1.6e6


def test_link_rate_outage():
    assert link_rate(0.0, 2e6, 1000.0) == 0.0
    assert link_rate(0.8, 3e6, 0.0) == 0.0


def test_link_rate_backhaul_golden():
    assert link_rate(0.8, 3e6, 1000.0) == BACKHAUL_GOLDEN


def test_link_rate_validation():
    with pytest.raises(ValueError):
        link_rate(1.2, 2e6, 1.0)
    with pytest.raises(ValueError):
        link_rate(-0.1, 2e6, 1.0)
    with pytest.raises(ValueError):
        link_rate(0.8, 0.0, 1.0)
    with pytest.raises(ValueError):
        link_rate(0.8, 2e6, -1.0)


@given(st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=1e5, max_value=1e8),
       st.floats(min_value=0.0, max_value=1e5))
def test_link_rate_monotone(lam, bandwidth, snr):
    base = link_rate(lam, bandwidth, snr)
    assert link_rate(min(1.0, lam * 1.1), bandwidth, snr) >= base
    assert link_rate(lam, bandwidth * 1.1, snr) >= base
    assert link_rate(lam, bandwidth, snr + 1.0) >= base


def test_transmit_time_goldens():
    assert transmit_time(0.0, 1.6e6) == 0.0
    assert transmit_time(400e3, 1.6e6) == 2.0
    assert abs(transmit_time(100e3, 2.4e6) - 1.0 / 3.0) < 1e-12


def test_transmit_time_rejects_dead_link():
    with pytest.raises(ValueError):
        transmit_time(100e3, 0.0)
    with pytest.raises(ValueError):
        transmit_time(-1.0, 1e6)


def test_transmit_time_rejects_nan():
    nan = math.nan
    for num_bytes, rate in ((100e3, nan), (nan, 1e6), (np.array([1.0, nan]), 1e6),
                            (100e3, np.array([1e6, nan]))):
        with pytest.raises(ValueError):
            transmit_time(num_bytes, rate)


def test_nan_link_rate_fails_the_state_tables():
    # a NaN rate used to pass the "rate <= 0" test and fill the times with NaN
    state = make_state([compute()], link=replace(GOLDEN_LINK, rate_bh=math.nan))
    with pytest.raises(ValueError, match="rate"):
        Tables([state])


@given(st.floats(min_value=1e-3, max_value=1e7),
       st.floats(min_value=1e3, max_value=1e9))
def test_transmit_time_linear_in_bytes(nbytes, rate):
    t = transmit_time(nbytes, rate)
    assert math.isclose(transmit_time(2.0 * nbytes, rate), 2.0 * t,
                        rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(transmit_time(nbytes, 2.0 * rate), t / 2.0,
                        rel_tol=1e-12, abs_tol=0.0)
