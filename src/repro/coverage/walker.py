"""Walker-delta constellations: generation, coverage checking, and sizing.

The Walker-delta pattern ``i: T/P/F`` spreads ``T`` satellites over ``P``
equally spaced orbital planes (ascending nodes spread over 360 degrees) at a
common inclination ``i``, with an inter-plane phase offset controlled by the
phasing factor ``F``.  It is the de-facto architecture of today's LSNs and is
the baseline the paper compares SS-plane designs against.

This module provides:

* :class:`WalkerDelta` -- constellation description and satellite generation,
* fast vectorised coverage checks against a latitude/longitude grid,
  built once per ``(grid_step_deg, lat_limit_deg)`` and shared read-only,
* :func:`minimum_walker_for_coverage` -- the smallest Walker-delta (by total
  satellite count) that provides continuous single coverage, used for the
  Walker curve of Figure 1,
* :func:`streets_of_coverage_size` -- the classical analytic sizing, used as a
  search seed and as a cross-check of the numerical result.

The continuous-coverage check tests each snapshot on a strided probe of the
grid (every :data:`PROBE_STRIDE`-th point) before the full grid.  The probe
points are rows of the same grid tested against the same threshold, so an
uncovered probe point is an uncovered grid point: a probe rejection is a
full-grid rejection, and only snapshots whose probe is fully covered pay for
the full check.  Almost every snapshot of an undersized pattern leaves large
gaps, so the probe settles most of the search's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..constants import EARTH_RADIUS_KM
from ..orbits.elements import OrbitalElements
from .footprint import coverage_half_angle_rad

__all__ = [
    "WalkerDelta",
    "circular_positions_eci",
    "coverage_fraction",
    "is_continuously_covered",
    "streets_of_coverage_size",
    "minimum_walker_for_coverage",
]

#: Stride of the grid probe :func:`is_continuously_covered` checks first.
#: One point in eleven finds the gaps of almost every undersized pattern at
#: about a tenth of the full grid's cost.
PROBE_STRIDE = 11


@dataclass(frozen=True)
class WalkerDelta:
    """A Walker-delta constellation ``inclination: total/planes/phasing``.

    Attributes
    ----------
    altitude_km:
        Common circular altitude of all satellites.
    inclination_deg:
        Common inclination in degrees.
    total_satellites:
        Total number of satellites ``T``.
    planes:
        Number of equally spaced orbital planes ``P`` (must divide ``T``).
    phasing:
        Walker phasing factor ``F`` in [0, P).
    """

    altitude_km: float
    inclination_deg: float
    total_satellites: int
    planes: int
    phasing: int = 1

    def __post_init__(self) -> None:
        if self.planes <= 0 or self.total_satellites <= 0:
            raise ValueError("planes and total_satellites must be positive")
        if self.total_satellites % self.planes != 0:
            raise ValueError("total_satellites must be a multiple of planes")
        if not 0 <= self.phasing < self.planes:
            raise ValueError("phasing factor must be in [0, planes)")

    @property
    def satellites_per_plane(self) -> int:
        """Number of satellites in each plane."""
        return self.total_satellites // self.planes

    def satellite_elements(self) -> list[OrbitalElements]:
        """Return the Keplerian elements of every satellite in the pattern."""
        elements = []
        sats_per_plane = self.satellites_per_plane
        for plane_index in range(self.planes):
            raan_deg = 360.0 * plane_index / self.planes
            for slot_index in range(sats_per_plane):
                phase_deg = (
                    360.0 * slot_index / sats_per_plane
                    + 360.0 * self.phasing * plane_index / self.total_satellites
                )
                elements.append(
                    OrbitalElements.circular(
                        altitude_km=self.altitude_km,
                        inclination_deg=self.inclination_deg,
                        raan_deg=raan_deg,
                        true_anomaly_deg=phase_deg,
                    )
                )
        return elements

    def raan_and_phase_rad(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (RAAN, argument-of-latitude) arrays for all satellites [rad]."""
        plane_index = np.repeat(np.arange(self.planes), self.satellites_per_plane)
        slot_index = np.tile(np.arange(self.satellites_per_plane), self.planes)
        raan = 2.0 * math.pi * plane_index / self.planes
        phase = (
            2.0 * math.pi * slot_index / self.satellites_per_plane
            + 2.0 * math.pi * self.phasing * plane_index / self.total_satellites
        )
        return raan, phase


def circular_positions_eci(
    altitude_km: float,
    inclination_rad: float,
    raan_rad: np.ndarray,
    arg_latitude_rad: np.ndarray,
) -> np.ndarray:
    """Return ECI positions [km] of circular-orbit satellites, vectorised.

    Parameters
    ----------
    altitude_km, inclination_rad:
        Common altitude and inclination.
    raan_rad, arg_latitude_rad:
        Per-satellite RAAN and argument of latitude arrays (same shape).

    Returns
    -------
    numpy.ndarray of shape (N, 3).
    """
    raan = np.asarray(raan_rad, dtype=float)
    u = np.asarray(arg_latitude_rad, dtype=float)
    if raan.shape != u.shape:
        raise ValueError("raan_rad and arg_latitude_rad must have the same shape")
    radius = EARTH_RADIUS_KM + altitude_km
    cos_i = math.cos(inclination_rad)
    sin_i = math.sin(inclination_rad)
    x = radius * (np.cos(u) * np.cos(raan) - np.sin(u) * cos_i * np.sin(raan))
    y = radius * (np.cos(u) * np.sin(raan) + np.sin(u) * cos_i * np.cos(raan))
    z = radius * (np.sin(u) * sin_i)
    return np.stack([x, y, z], axis=-1)


@lru_cache(maxsize=None)
def _grid_unit_vectors(lat_step_deg: float, lat_limit_deg: float) -> np.ndarray:
    """Return read-only unit vectors of a lat/lon test grid up to ``lat_limit_deg``.

    The array is cached per ``(lat_step_deg, lat_limit_deg)`` and shared by
    every caller, so it is marked non-writeable.
    """
    latitudes = np.arange(-lat_limit_deg + lat_step_deg / 2, lat_limit_deg, lat_step_deg)
    longitudes = np.arange(-180.0 + lat_step_deg / 2, 180.0, lat_step_deg)
    lat_grid, lon_grid = np.meshgrid(np.radians(latitudes), np.radians(longitudes), indexing="ij")
    cos_lat = np.cos(lat_grid)
    vectors = np.stack(
        [cos_lat * np.cos(lon_grid), cos_lat * np.sin(lon_grid), np.sin(lat_grid)], axis=-1
    ).reshape(-1, 3)
    vectors.flags.writeable = False
    return vectors


def _unit_rows(positions_eci_km: np.ndarray) -> np.ndarray:
    """Return the (N, 3) positions scaled to unit length."""
    return positions_eci_km / np.linalg.norm(positions_eci_km, axis=1, keepdims=True)


def _covered_points(
    grid_units: np.ndarray, sat_units: np.ndarray, cos_half_angle: float
) -> np.ndarray:
    """Return, per grid point, whether it lies within the half angle of some satellite."""
    # Angle between each grid point and each sub-satellite point.
    return np.any(grid_units @ sat_units.T >= cos_half_angle, axis=1)


def coverage_fraction(
    positions_eci_km: np.ndarray,
    half_angle_rad: float,
    grid_step_deg: float = 5.0,
    lat_limit_deg: float = 90.0,
) -> float:
    """Return the fraction of surface grid points covered by at least one satellite.

    Coverage is evaluated in the inertial frame: because the test grid spans
    all longitudes uniformly, rotating it into the Earth-fixed frame does not
    change the answer, so the GMST rotation can be skipped.
    """
    positions = np.asarray(positions_eci_km, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    sat_units = _unit_rows(positions)
    grid_units = _grid_unit_vectors(grid_step_deg, lat_limit_deg)
    return float(np.mean(_covered_points(grid_units, sat_units, math.cos(half_angle_rad))))


def is_continuously_covered(
    constellation: WalkerDelta,
    min_elevation_deg: float,
    lat_limit_deg: float | None = None,
    grid_step_deg: float = 5.0,
    time_samples: int = 8,
) -> bool:
    """Return whether a Walker-delta pattern provides continuous single coverage.

    The pattern is advanced through ``time_samples`` snapshots of the orbital
    period (the coverage pattern of a Walker constellation is periodic in the
    satellites' argument of latitude) and every snapshot must cover every test
    grid point up to ``lat_limit_deg``.

    Each snapshot is first tested on the probe, every :data:`PROBE_STRIDE`-th
    grid point, and rejected as soon as one probe point is uncovered.  Probe
    points are grid points tested against the same threshold, so that
    rejection is exactly the full grid's verdict; only a snapshot whose probe
    is fully covered goes on to the full-grid test.  Snapshots are visited in
    time order and the first failing one ends the check, so the verdict is
    the one a full-grid :func:`coverage_fraction` of every snapshot gives.

    ``lat_limit_deg`` defaults to the constellation's inclination latitude
    (or its supplement for retrograde patterns): the band that an inclined
    Walker constellation is designed to serve.  Latitudes beyond the
    turnaround latitude receive only grazing coverage and demanding them
    continuously would inflate the satellite count without bound.
    """
    half_angle = coverage_half_angle_rad(constellation.altitude_km, min_elevation_deg)
    cos_half_angle = math.cos(half_angle)
    inclination_rad = math.radians(constellation.inclination_deg)
    if lat_limit_deg is None:
        lat_limit_deg = min(
            constellation.inclination_deg, 180.0 - constellation.inclination_deg
        )
    grid_units = _grid_unit_vectors(grid_step_deg, lat_limit_deg)
    probe_units = grid_units[::PROBE_STRIDE]
    raan, phase = constellation.raan_and_phase_rad()
    for sample in range(time_samples):
        advance = 2.0 * math.pi * sample / time_samples
        sat_units = _unit_rows(
            circular_positions_eci(
                constellation.altitude_km, inclination_rad, raan, phase + advance
            )
        )
        if not _covered_points(probe_units, sat_units, cos_half_angle).all():
            return False
        if not _covered_points(grid_units, sat_units, cos_half_angle).all():
            return False
    return True


def streets_of_coverage_size(
    altitude_km: float, inclination_deg: float, min_elevation_deg: float
) -> tuple[int, int]:
    """Return an analytic (planes, satellites_per_plane) sizing estimate.

    Uses the classical "streets of coverage" argument: ``S`` satellites per
    plane produce a continuous street of half-width ``c`` with
    ``cos(lambda) = cos(c) * cos(pi/S)``; ``P`` planes whose adjacent streets
    (including both ascending and descending passes) must close around the
    equator give ``P * (c + lambda) * sin(i) >= pi``.  The result seeds the
    numerical search of :func:`minimum_walker_for_coverage`.
    """
    lam = coverage_half_angle_rad(altitude_km, min_elevation_deg)
    inclination_rad = math.radians(inclination_deg)
    satellites_per_plane = int(math.ceil(math.pi / lam)) + 1
    street_half_width = math.acos(
        min(1.0, math.cos(lam) / math.cos(math.pi / satellites_per_plane))
    )
    planes = int(
        math.ceil(math.pi / ((street_half_width + lam) * max(math.sin(inclination_rad), 0.3)))
    )
    return planes, satellites_per_plane


def minimum_walker_for_coverage(
    altitude_km: float,
    inclination_deg: float,
    min_elevation_deg: float = 25.0,
    lat_limit_deg: float | None = None,
    grid_step_deg: float = 5.0,
    time_samples: int = 8,
    max_total: int = 5000,
) -> WalkerDelta:
    """Return the smallest Walker-delta giving continuous single coverage.

    The search enumerates plane counts and satellites-per-plane counts in
    order of increasing total satellite count, starting from the analytic
    streets-of-coverage seed, and returns the first configuration that passes
    the numerical continuous-coverage check.

    Raises
    ------
    ValueError
        If no configuration with at most ``max_total`` satellites covers the
        requested region (e.g. the altitude is too low for the elevation mask).
    """
    seed_planes, seed_sats = streets_of_coverage_size(
        altitude_km, inclination_deg, min_elevation_deg
    )
    lam = coverage_half_angle_rad(altitude_km, min_elevation_deg)
    min_sats_per_plane = max(3, int(math.ceil(math.pi / lam)))

    max_planes = max(seed_planes * 3, 8)
    max_sats_per_plane = max(seed_sats * 3, min_sats_per_plane + 10)
    # Ascending total satellite count; equal totals in ascending plane count.
    candidates = sorted(
        (planes * sats_per_plane, planes)
        for planes in range(2, max_planes + 1)
        for sats_per_plane in range(min_sats_per_plane, max_sats_per_plane + 1)
        if planes * sats_per_plane <= max_total
    )
    for total, planes in candidates:
        constellation = WalkerDelta(
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            total_satellites=total,
            planes=planes,
            phasing=1,
        )
        if is_continuously_covered(
            constellation,
            min_elevation_deg,
            lat_limit_deg=lat_limit_deg,
            grid_step_deg=grid_step_deg,
            time_samples=time_samples,
        ):
            return constellation
    raise ValueError(
        f"no Walker-delta with at most {max_total} satellites covers the requested region"
    )
