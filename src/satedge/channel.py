"""Link model for both hops: Shannon-style rate scaled by rain attenuation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def snr_from_db(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def link_rate(attenuation: float, bandwidth_hz: float, snr: float) -> float:
    """Achievable rate in bit/s for one hop.

    Args:
        attenuation: multiplicative rain factor in [0, 1]; 0 is a total outage.
        bandwidth_hz: channel bandwidth in Hz.
        snr: linear signal-to-noise ratio (not dB).
    """
    if not 0.0 <= attenuation <= 1.0:
        raise ValueError(f"attenuation must be in [0, 1], got {attenuation}")
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return attenuation * bandwidth_hz * math.log2(1.0 + snr)


def transmit_time(num_bytes, rate_bits_s):
    """Seconds to move num_bytes over a link running at rate_bits_s.

    Either argument may be a numpy array; the result then broadcasts.
    """
    # "not >" rather than "<=", so NaN fails too
    if not np.all(np.greater(rate_bits_s, 0.0)):
        raise ValueError(f"rate must be positive, got {rate_bits_s}")
    if not np.all(np.greater_equal(num_bytes, 0.0)):
        raise ValueError(f"byte count must be nonnegative, got {num_bytes}")
    return 8.0 * num_bytes / rate_bits_s


@dataclass(frozen=True)
class LinkState:
    """Per-episode snapshot of both hops plus fixed propagation delays.

    rate_fh: vehicle <-> satellite, bit/s
    rate_bh: satellite <-> ground, bit/s
    prop_vs / prop_sg: one-way propagation delays, seconds
    """

    rate_fh: float
    rate_bh: float
    prop_vs: float
    prop_sg: float
