"""Radiation exposure accumulated along orbits.

Turns the instantaneous flux model of :mod:`repro.radiation.belts` into the
quantity the paper actually reports: the fluence (time-integrated flux, in
particles per cm^2 per MeV) accumulated by a satellite over one day.  This is
what Figure 7 plots against inclination and what Figure 10 reports as the
per-satellite median of whole constellations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..constants import EARTH_ROTATION_RATE, SOLAR_DAY_S
from ..orbits.elements import OrbitalElements
from ..orbits.frames import rotate_rows_about_z
from ..orbits.propagation import BatchPropagator
from ..orbits.time import J2000
from .belts import TrappedParticleModel, default_radiation_model

__all__ = ["ExposureCalculator", "DailyFluence", "daily_fluence_vs_inclination"]


@dataclass(frozen=True)
class DailyFluence:
    """Electron and proton fluence accumulated over one day [#/cm^2/MeV]."""

    electron: float
    proton: float

    def __add__(self, other: "DailyFluence") -> "DailyFluence":
        return DailyFluence(self.electron + other.electron, self.proton + other.proton)

    def scaled(self, factor: float) -> "DailyFluence":
        """Return the fluence multiplied by ``factor``."""
        return DailyFluence(self.electron * factor, self.proton * factor)


def _ecef_positions_over_day(
    elements: OrbitalElements,
    duration_s: float,
    step_s: float,
    gmst0_rad: float = 0.0,
) -> np.ndarray:
    """Return Earth-fixed positions [km] of one satellite sampled over a window.

    The inertial trajectory comes from the vectorised
    :class:`~repro.orbits.propagation.BatchPropagator` (the same secular-J2
    model as the scalar reference propagator, including argument-of-perigee
    drift and the full Kepler solve for eccentric orbits), sampled at every
    step in one array operation -- important because exposure calculations
    sample tens of thousands of points per constellation.  The Earth-fixed
    rotation uses the caller-supplied ``gmst0_rad`` rather than a calendar
    epoch: daily fluence only cares how passes line up with the (longitude-
    anchored) belt geometry over a day, not on which date the day starts.
    """
    times = np.arange(0.0, duration_s, step_s)
    positions_eci = BatchPropagator([elements], J2000).positions_eci_offsets(times)[:, 0, :]
    return rotate_rows_about_z(positions_eci, gmst0_rad + EARTH_ROTATION_RATE * times)


@dataclass(frozen=True)
class ExposureCalculator:
    """Accumulates daily radiation fluence along orbits.

    Daily fluences are memoised per orbit key (see :meth:`_keyed_fluence`),
    so one calculator shared by many designs computes each distinct orbit
    once.

    Attributes
    ----------
    model:
        Trapped-particle flux model.
    step_s:
        Sampling interval along the orbit; 60 s resolves the SAA and horn
        crossings (a few minutes long) comfortably.
    electron_modulation, proton_modulation:
        Solar-activity factors applied to the respective species (see
        :class:`repro.radiation.solar_cycle.SolarCycle`).
    """

    model: TrappedParticleModel = field(default_factory=default_radiation_model)
    step_s: float = 60.0
    electron_modulation: float = 1.0
    proton_modulation: float = 1.0
    _fluences: dict[tuple[float, float, float], DailyFluence] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def daily_fluence(
        self,
        elements: OrbitalElements,
        duration_s: float = SOLAR_DAY_S,
        gmst0_rad: float = 0.0,
    ) -> DailyFluence:
        """Return the fluence a satellite on ``elements`` accumulates in a day."""
        positions = _ecef_positions_over_day(elements, duration_s, self.step_s, gmst0_rad)
        electron = self.model.electron_flux(positions, self.electron_modulation)
        proton = self.model.proton_flux(positions, self.proton_modulation)
        scale = self.step_s * SOLAR_DAY_S / duration_s  # normalise to one full day
        return DailyFluence(
            electron=float(np.sum(electron) * scale),
            proton=float(np.sum(proton) * scale),
        )

    def daily_fluence_circular(
        self, altitude_km: float, inclination_deg: float, raan_deg: float = 0.0
    ) -> DailyFluence:
        """Convenience wrapper for a circular orbit given altitude/inclination."""
        elements = OrbitalElements.circular(
            altitude_km=altitude_km, inclination_deg=inclination_deg, raan_deg=raan_deg
        )
        return self.daily_fluence(elements)

    def _keyed_fluence(self, elements: OrbitalElements) -> DailyFluence:
        """Return the daily fluence of ``elements``, memoised per orbit key.

        Satellites sharing altitude, inclination and RAAN accumulate identical
        daily fluence (their phase within the plane only shifts *when* they
        cross the belts, not how often), so results are memoised per
        (altitude, inclination, RAAN) triple for the calculator's lifetime.
        """
        key = (
            round(elements.altitude_km, 3),
            round(elements.inclination_deg, 3),
            round(elements.raan_deg, 1),
        )
        fluence = self._fluences.get(key)
        if fluence is None:
            fluence = self._fluences[key] = self.daily_fluence(elements)
        return fluence

    def group_fluences(
        self, groups: Sequence[tuple[OrbitalElements, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return per-satellite (electron, proton) fluences of orbit groups.

        Each ``(elements, count)`` group stands for ``count`` satellites
        sharing one orbit (a plane or shell); its fluence is computed once
        and repeated ``count`` times, in group order.
        """
        fluences = [self._keyed_fluence(elements) for elements, _ in groups]
        counts = [count for _, count in groups]
        electron = np.repeat([f.electron for f in fluences], counts)
        proton = np.repeat([f.proton for f in fluences], counts)
        return electron, proton

    def constellation_fluences(self, satellites: list[OrbitalElements]) -> list[DailyFluence]:
        """Return per-satellite daily fluences for a whole constellation."""
        return [self._keyed_fluence(elements) for elements in satellites]

    def median_constellation_fluence(self, satellites: list[OrbitalElements]) -> DailyFluence:
        """Return the median per-satellite fluence of a constellation (Figure 10)."""
        if not satellites:
            raise ValueError("constellation must contain at least one satellite")
        electron, proton = self.group_fluences([(elements, 1) for elements in satellites])
        return DailyFluence(float(np.median(electron)), float(np.median(proton)))


def daily_fluence_vs_inclination(
    altitude_km: float = 560.0,
    inclinations_deg: np.ndarray | None = None,
    calculator: ExposureCalculator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (inclinations, electron fluence, proton fluence) -- Figure 7.

    Each orbit's fluence is averaged over several RAAN values so the result
    reflects the mean exposure of a plane regardless of how its passes line up
    with the South Atlantic Anomaly on the sampled day.
    """
    if inclinations_deg is None:
        inclinations_deg = np.arange(45.0, 101.0, 2.5)
    calculator = calculator or ExposureCalculator()
    inclinations = np.asarray(inclinations_deg, dtype=float)
    electron = np.empty(inclinations.size)
    proton = np.empty(inclinations.size)
    raan_samples = (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
    for index, inclination in enumerate(inclinations):
        fluences = [
            calculator.daily_fluence_circular(altitude_km, float(inclination), raan)
            for raan in raan_samples
        ]
        electron[index] = float(np.mean([f.electron for f in fluences]))
        proton[index] = float(np.mean([f.proton for f in fluences]))
    return inclinations, electron, proton
