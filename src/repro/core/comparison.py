"""Head-to-head comparison sweeps (Figures 9 and 10, headline claims).

Runs the SS-plane and Walker-delta designers over a sweep of bandwidth
multipliers and collects the two series the paper reports: total satellites
required and median per-satellite radiation fluence.  Also derives the two
headline numbers of the abstract -- the satellite-count reduction factor and
the radiation reduction percentage.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .designer import ConstellationDesigner

__all__ = ["ComparisonPoint", "ComparisonSweep", "HeadlineClaims", "run_comparison_sweep"]


@dataclass(frozen=True)
class ComparisonPoint:
    """SS-plane vs. Walker comparison at one bandwidth multiplier."""

    bandwidth_multiplier: float
    ss_satellites: int
    walker_satellites: int
    ss_planes: int
    walker_shells: int
    ss_median_electron: float
    walker_median_electron: float
    ss_median_proton: float
    walker_median_proton: float

    @property
    def satellite_reduction_factor(self) -> float:
        """Walker satellites divided by SS satellites (>1 means SS wins).

        Two empty designs tie (1.0); an empty SS design against a non-empty
        Walker one wins without bound.
        """
        if self.ss_satellites == 0:
            return 1.0 if self.walker_satellites == 0 else math.inf
        return self.walker_satellites / self.ss_satellites

    @property
    def electron_reduction_percent(self) -> float:
        """Percent reduction of median electron fluence of SS vs. Walker."""
        if self.walker_median_electron == 0:
            return 0.0
        return 100.0 * (1.0 - self.ss_median_electron / self.walker_median_electron)

    @property
    def proton_reduction_percent(self) -> float:
        """Percent reduction of median proton fluence of SS vs. Walker."""
        if self.walker_median_proton == 0:
            return 0.0
        return 100.0 * (1.0 - self.ss_median_proton / self.walker_median_proton)


@dataclass(frozen=True)
class HeadlineClaims:
    """The abstract's headline numbers, derived from a comparison sweep."""

    max_satellite_reduction_factor: float
    max_electron_reduction_percent: float
    max_proton_reduction_percent: float

    @property
    def order_of_magnitude_fewer_satellites(self) -> bool:
        """Whether the sweep supports "up to an order of magnitude" fewer satellites."""
        return self.max_satellite_reduction_factor >= 5.0


@dataclass
class ComparisonSweep:
    """Results of a bandwidth-multiplier sweep."""

    points: list[ComparisonPoint] = field(default_factory=list)

    def bandwidth_multipliers(self) -> np.ndarray:
        """Return the swept multipliers as an array."""
        return np.array([p.bandwidth_multiplier for p in self.points])

    def ss_satellites(self) -> np.ndarray:
        """Return the SS-plane satellite counts (Figure 9, SS series)."""
        return np.array([p.ss_satellites for p in self.points])

    def walker_satellites(self) -> np.ndarray:
        """Return the Walker satellite counts (Figure 9, WD series)."""
        return np.array([p.walker_satellites for p in self.points])

    def headline_claims(self) -> HeadlineClaims:
        """Derive the abstract's headline numbers from the sweep."""
        return HeadlineClaims(
            max_satellite_reduction_factor=_max_skipping_nan(
                p.satellite_reduction_factor for p in self.points
            ),
            max_electron_reduction_percent=_max_skipping_nan(
                p.electron_reduction_percent for p in self.points
            ),
            max_proton_reduction_percent=_max_skipping_nan(
                p.proton_reduction_percent for p in self.points
            ),
        )


def _max_skipping_nan(values: Iterable[float]) -> float:
    """Return the maximum of ``values``, skipping NaN.

    An empty design (no satellites, below the demand floor) has NaN fluence,
    so its reduction percentages are NaN; they carry no claim.
    """
    kept = [value for value in values if not math.isnan(value)]
    if not kept:
        raise ValueError("the sweep contains no non-empty points")
    return max(kept)


def run_comparison_sweep(
    bandwidth_multipliers: tuple[float, ...] = (10.0, 30.0, 100.0, 300.0, 1000.0),
    designer: ConstellationDesigner | None = None,
) -> ComparisonSweep:
    """Run the Figure 9 / Figure 10 sweep and return the collected points."""
    designer = designer or ConstellationDesigner()
    sweep = ComparisonSweep()
    for multiplier in bandwidth_multipliers:
        ss_outcome, walker_outcome = designer.design_both(multiplier)
        sweep.points.append(
            ComparisonPoint(
                bandwidth_multiplier=multiplier,
                ss_satellites=ss_outcome.metrics.total_satellites,
                walker_satellites=walker_outcome.metrics.total_satellites,
                ss_planes=ss_outcome.metrics.plane_count,
                walker_shells=walker_outcome.metrics.plane_count,
                ss_median_electron=ss_outcome.metrics.median_electron_fluence,
                walker_median_electron=walker_outcome.metrics.median_electron_fluence,
                ss_median_proton=ss_outcome.metrics.median_proton_fluence,
                walker_median_proton=walker_outcome.metrics.median_proton_fluence,
            )
        )
    return sweep
