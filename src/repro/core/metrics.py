"""Constellation metrics: size, radiation exposure, coverage accounting.

These are the quantities the paper's evaluation section reports: total
satellite counts (Figure 9), the median per-satellite daily radiation fluence
(Figure 10), and the headline ratios derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..orbits.elements import OrbitalElements
from ..radiation.exposure import DailyFluence, ExposureCalculator
from .greedy_cover import GreedyCoverResult
from .ssplane import SSPlane
from .walker_baseline import WalkerBaselineResult

__all__ = ["ConstellationMetrics", "MetricsCalculator"]


@dataclass(frozen=True)
class ConstellationMetrics:
    """Summary metrics of one designed constellation.

    Attributes
    ----------
    design:
        Human-readable label of the design method ("ss-plane", "walker", ...).
    total_satellites:
        Total number of satellites.
    plane_count:
        Number of orbital planes (SS design) or shells (Walker design).
    median_fluence:
        Median per-satellite daily radiation fluence (NaN with no satellites).
    mean_fluence:
        Mean per-satellite daily radiation fluence (NaN with no satellites).
    satisfied:
        Whether the design fully covered its demand grid.
    """

    design: str
    total_satellites: int
    plane_count: int
    median_fluence: DailyFluence
    mean_fluence: DailyFluence
    satisfied: bool

    @property
    def median_electron_fluence(self) -> float:
        """Median per-satellite electron fluence [#/cm^2/MeV/day]."""
        return self.median_fluence.electron

    @property
    def median_proton_fluence(self) -> float:
        """Median per-satellite proton fluence [#/cm^2/MeV/day]."""
        return self.median_fluence.proton


@dataclass
class MetricsCalculator:
    """Computes :class:`ConstellationMetrics` for SS-plane and Walker designs.

    Every satellite of a plane or shell accumulates the same daily fluence,
    so each design is evaluated as ``(representative elements, satellite
    count)`` groups: one fluence per group, repeated per satellite only as
    the arrays the median and mean are taken over.  The
    :class:`~repro.radiation.exposure.ExposureCalculator` memoises fluences
    per orbit, so a sweep of designs computes each distinct orbit once.
    """

    exposure: ExposureCalculator = field(default_factory=ExposureCalculator)

    def _fluence_stats(
        self, groups: list[tuple[OrbitalElements, int]]
    ) -> tuple[DailyFluence, DailyFluence]:
        """Return the (median, mean) per-satellite fluence; NaN with no satellites."""
        electrons, protons = self.exposure.group_fluences(groups)
        if not electrons.size:
            empty = DailyFluence(math.nan, math.nan)
            return empty, empty
        median = DailyFluence(float(np.median(electrons)), float(np.median(protons)))
        mean = DailyFluence(float(np.mean(electrons)), float(np.mean(protons)))
        return median, mean

    def for_ssplane(self, result: GreedyCoverResult) -> ConstellationMetrics:
        """Return metrics of a greedy SS-plane design.

        A greedy design adds the same plane many times over, so the elements
        are built once per distinct plane; the group list keeps one entry per
        plane, in order.
        """
        elements: dict[SSPlane, OrbitalElements] = {}
        groups = []
        for plane in result.planes:
            if plane not in elements:
                elements[plane] = plane.orbit.to_elements()
            groups.append((elements[plane], plane.satellite_count))
        median, mean = self._fluence_stats(groups)
        return ConstellationMetrics(
            design="ss-plane",
            total_satellites=result.total_satellites,
            plane_count=result.plane_count,
            median_fluence=median,
            mean_fluence=mean,
            satisfied=result.satisfied,
        )

    def for_walker(self, result: WalkerBaselineResult) -> ConstellationMetrics:
        """Return metrics of a demand-driven Walker baseline design."""
        median, mean = self._fluence_stats(
            [
                (
                    OrbitalElements.circular(
                        altitude_km=shell.altitude_km,
                        inclination_deg=shell.inclination_deg,
                    ),
                    shell.satellite_count,
                )
                for shell in result.shells
            ]
        )
        return ConstellationMetrics(
            design="walker",
            total_satellites=result.total_satellites,
            plane_count=result.shell_count,
            median_fluence=median,
            mean_fluence=mean,
            satisfied=result.satisfied,
        )
