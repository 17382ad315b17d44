"""Greedy SS-plane covering of the demand grid (Section 4.2).

The SS constellation design problem is: choose a set of SS-planes (each a
fixed path on the latitude x local-time-of-day chart) such that every cell's
demand -- measured in multiples of a single satellite's capacity -- is met,
using as few planes (and hence satellites) as possible.  The paper solves it
with a simple greedy loop:

1. pick the cell with the largest remaining demand,
2. add an SS-plane whose path passes through that cell and subtract one
   satellite-capacity unit from every cell the plane covers (clamping at 0),
3. repeat until no demand remains.

This module implements that loop, with the plane's LTAN chosen so that either
its ascending or its descending branch crosses the peak cell (whichever
branch also relieves more of the remaining demand elsewhere).

The loop runs thousands of iterations over only a few dozen distinct peak
cells, so its work is organised per cell rather than per iteration: the
first time a cell is the peak, a per-call *candidate table* stores, for each
branch, the plane through it and the flat indices of the grid cells that
plane covers.  Every later visit to that cell only gathers and updates the
remaining demand at those indices.  Coverage masks are computed once per
distinct LTAN (to the second) within one call; nothing is cached across
calls, so changing the designer's attributes between calls is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..coverage.grid import LatLocalTimeGrid, _cell_centre
from .ssplane import SSPlane, plane_local_time_offset_hours, satellites_per_plane

__all__ = ["GreedyCoverResult", "GreedySSPlaneDesigner"]


@dataclass(frozen=True)
class GreedyCoverResult:
    """Outcome of the greedy covering run.

    Attributes
    ----------
    planes:
        The SS-planes selected, in the order they were added.
    total_satellites:
        Sum of the per-plane satellite counts.
    residual_demand:
        Demand left uncovered (non-zero only if ``max_planes`` was hit).
    iterations:
        Number of greedy iterations executed.
    """

    planes: tuple[SSPlane, ...]
    total_satellites: int
    residual_demand: float
    iterations: int

    @property
    def plane_count(self) -> int:
        """Number of planes selected."""
        return len(self.planes)

    @property
    def satisfied(self) -> bool:
        """Whether all demand was covered."""
        return self.residual_demand <= 1e-9

    def ltans_hours(self) -> list[float]:
        """Return the LTAN of every selected plane."""
        return [plane.ltan_hours for plane in self.planes]


@dataclass
class GreedySSPlaneDesigner:
    """Greedy designer of SS-plane constellations.

    Attributes
    ----------
    altitude_km:
        Altitude of every plane (the paper evaluates a single ~560 km shell).
    min_elevation_deg:
        Elevation mask for the footprint geometry.
    street_half_width_fraction:
        Fraction of the footprint half-angle credited as covered street
        half-width (also determines the per-plane satellite count).
    demand_floor:
        Demand below this many satellite-capacity units per cell is treated
        as zero; it corresponds to populations too small to drive
        constellation sizing.
    max_planes:
        Safety bound on the number of greedy iterations.
    """

    altitude_km: float = 560.0
    min_elevation_deg: float = 25.0
    street_half_width_fraction: float = 0.5
    demand_floor: float = 0.01
    max_planes: int = 20000

    def satellites_per_plane(self) -> int:
        """Return the per-plane satellite count used by this designer."""
        return satellites_per_plane(
            self.altitude_km, self.min_elevation_deg, self.street_half_width_fraction
        )

    def _plane_for(
        self, template: SSPlane, latitude_deg: float, local_time_hours: float, ascending: bool
    ) -> SSPlane:
        """Return ``template`` moved to the LTAN whose chosen branch crosses the cell."""
        offset = plane_local_time_offset_hours(
            math.radians(latitude_deg), template.inclination_rad, ascending=ascending
        )
        return replace(template, ltan_hours=(local_time_hours - offset) % 24.0)

    def design(self, demand: LatLocalTimeGrid) -> GreedyCoverResult:
        """Run the greedy covering loop of Section 4.2 on a demand grid.

        The input grid is not modified; demand is expressed in multiples of a
        single satellite's capacity.  The candidate table and the masks it
        holds live for this call only.
        """
        remaining = demand.copy()
        planes: list[SSPlane] = []
        iterations = 0

        # Demand below the floor is noise from the synthetic population
        # background; it never drives real constellation sizing.
        remaining.values[remaining.values < self.demand_floor] = 0.0

        # Every plane shares this shell's geometry and satellite count; only
        # the LTAN differs, so the template is built (and its inclination
        # solved) once per design.
        template = SSPlane(
            altitude_km=self.altitude_km,
            ltan_hours=0.0,
            satellite_count=self.satellites_per_plane(),
            min_elevation_deg=self.min_elevation_deg,
            street_half_width_fraction=self.street_half_width_fraction,
        )
        # Clip reachable latitudes: cells poleward of the orbit's maximum
        # latitude plus the street width can never be covered by this shell;
        # treat them as out of scope exactly once so the loop terminates.
        max_lat_deg = math.degrees(
            math.asin(min(1.0, abs(math.sin(template.inclination_rad))))
        ) + math.degrees(template.street_half_width_rad)
        unreachable = np.abs(remaining.latitudes_deg) > max_lat_deg
        clipped_demand = float(remaining.values[unreachable].sum())
        remaining.values[unreachable] = 0.0

        # ``copy()`` returns C-contiguous values, so ``flat`` is a view: every
        # update through it is seen by ``remaining.total()``.
        flat = remaining.values.reshape(-1)
        n_time = remaining.values.shape[1]
        # peak flat index -> [(plane, covered flat indices)] per reachable
        # branch, ascending first; masks are shared by LTAN (to the second).
        candidates: dict[int, list[tuple[SSPlane, np.ndarray]]] = {}
        covered_by_ltan: dict[int, np.ndarray] = {}
        while remaining.total() > 1e-9 and iterations < self.max_planes:
            iterations += 1
            peak = int(flat.argmax())
            if flat[peak] <= 1e-9:
                break
            branches = candidates.get(peak)
            if branches is None:
                branches = candidates[peak] = []
                row, col = divmod(peak, n_time)
                peak_lat = float(_cell_centre(-90.0, row, remaining.lat_resolution_deg))
                peak_time = float(_cell_centre(0.0, col, remaining.time_resolution_hours))
                for ascending in (True, False):
                    try:
                        plane = self._plane_for(template, peak_lat, peak_time, ascending)
                    except ValueError:
                        continue
                    key = int(round(plane.ltan_hours * 3600.0))
                    if key not in covered_by_ltan:
                        covered_by_ltan[key] = np.flatnonzero(plane.coverage_mask(remaining))
                    branches.append((plane, covered_by_ltan[key]))
            if not branches:
                # Peak cell unreachable (should have been clipped); zero it out.
                clipped_demand += float(flat[peak])
                flat[peak] = 0.0
                continue
            # Keep the branch through the peak cell that removes the most
            # remaining demand (the ascending one on a tie: ``max`` keeps the
            # first).  The index arrays hold the covered cells in row-major
            # order, so each sum is the one a boolean-mask gather would give.
            best_plane, best_covered = max(
                branches, key=lambda branch: float(np.minimum(flat[branch[1]], 1.0).sum())
            )
            planes.append(best_plane)
            flat[best_covered] = np.maximum(flat[best_covered] - 1.0, 0.0)

        total_satellites = sum(plane.satellite_count for plane in planes)
        return GreedyCoverResult(
            planes=tuple(planes),
            total_satellites=total_satellites,
            residual_demand=float(remaining.total()) + clipped_demand,
            iterations=iterations,
        )
