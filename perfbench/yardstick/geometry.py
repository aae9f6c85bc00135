"""Coverage geometry for a circular LEO pass over a ground point.

Angles are radians, radii and altitudes km, angular rates rad/s. The
coverage window is how long one satellite stays above the elevation
mask for a point whose great-circle offset from the sub-satellite
track is theta_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_MU_KM3_S2 = 398600.4418  # gravitational parameter of Earth


class CoverageDomainError(ValueError):
    """Geometry queried outside its valid domain."""


@dataclass(frozen=True)
class OrbitParams:
    earth_radius_km: float = 6371.0
    altitude_km: float = 780.0
    min_elevation_rad: float = math.radians(10.0)
    inclination_rad: float = math.radians(86.4)
    earth_rotation_rate: float = 7.2921e-5
    sat_angular_rate: float | None = None  # rad/s; None derives circular-orbit rate


def mean_motion(earth_radius_km: float, altitude_km: float) -> float:
    """Circular-orbit angular rate at the given altitude."""
    r = earth_radius_km + altitude_km
    if r <= 0:
        raise CoverageDomainError(f"nonpositive orbit radius {r}")
    return math.sqrt(EARTH_MU_KM3_S2 / r**3)


def earth_central_angle(params: OrbitParams) -> float:
    """Half-width theta_0 of the coverage cap, seen from the Earth's center.

    theta_0 = arccos(cos(xi_0) * r_e / (r_e + h)) - xi_0 for elevation
    mask xi_0. Grows with altitude, shrinks with the mask.
    """
    if params.earth_radius_km <= 0 or params.altitude_km <= 0:
        raise CoverageDomainError("radius and altitude must be positive")
    if not 0.0 <= params.min_elevation_rad <= math.pi / 2:
        raise CoverageDomainError(
            f"elevation mask must lie in [0, pi/2], got {params.min_elevation_rad}")
    ratio = params.earth_radius_km / (params.earth_radius_km + params.altitude_km)
    return math.acos(ratio * math.cos(params.min_elevation_rad)) - params.min_elevation_rad


def relative_angular_velocity(params: OrbitParams) -> float:
    """Effective angular rate of the satellite relative to the rotating Earth.

    Half the difference between the orbital rate and the projection of the
    Earth's rotation onto the orbit plane. Must come out positive for a
    coverage window to exist.
    """
    eta_m = params.sat_angular_rate
    if eta_m is None:
        eta_m = mean_motion(params.earth_radius_km, params.altitude_km)
    eta = (eta_m - params.earth_rotation_rate * math.cos(params.inclination_rad)) / 2.0
    if eta <= 0.0:
        raise CoverageDomainError(f"relative angular rate must be positive, got {eta}")
    return eta


def coverage_time(theta_m: float, params: OrbitParams) -> float:
    """Seconds of continuous coverage for offset theta_m in [0, theta_0].

    Zero at the cap edge, maximal (theta_0 / eta) for a pass straight
    overhead. The arccos argument is clipped at 1 so the theta_m = theta_0
    boundary is exact under floating point.
    """
    theta_0 = earth_central_angle(params)
    if not 0.0 <= theta_m <= theta_0:
        raise CoverageDomainError(
            f"theta_m={theta_m} outside the coverage cap [0, {theta_0}]")
    eta = relative_angular_velocity(params)
    ratio = min(1.0, math.cos(theta_0) / math.cos(theta_m))
    return math.acos(ratio) / eta
