"""Reference implementations of the SS-plane coverage mask and greedy loop.

The production code evaluates a plane's coverage mask as one broadcast over
the grid and runs the greedy cover of Section 4.2 over a per-call candidate
table of flat cell indices.  The references below are the straightforward
versions they replaced: a per-row mask loop, and a greedy loop that builds
both candidate planes and gathers boolean masks over the whole grid on every
iteration.  The production paths must match them exactly: masks
``array_equal``, designs ``==``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.constants import HOURS_PER_DAY
from repro.core.greedy_cover import GreedyCoverResult, GreedySSPlaneDesigner
from repro.core.ssplane import SSPlane, plane_local_time_offset_hours, satellites_per_plane
from repro.coverage.grid import LatLocalTimeGrid


def reference_coverage_mask(plane: SSPlane, grid: LatLocalTimeGrid) -> np.ndarray:
    """Per-row coverage mask: the street around each pass, row by row."""
    latitudes_rad = np.radians(grid.latitudes_deg)
    local_times = grid.local_times_hours
    street_deg = math.degrees(plane.street_half_width_rad)

    ascending, descending = plane.path_local_time_hours(latitudes_rad)
    mask = np.zeros((grid.n_lat, grid.n_time), dtype=bool)
    cos_lat = np.cos(latitudes_rad)
    lat_step_deg = grid.lat_resolution_deg

    max_lat_deg = math.degrees(math.asin(min(1.0, abs(math.sin(plane.inclination_rad)))))
    quarter = 6.0 if math.cos(plane.inclination_rad) >= 0 else -6.0
    north_turn_time = (plane.ltan_hours + quarter) % HOURS_PER_DAY
    south_turn_time = (plane.ltan_hours - quarter) % HOURS_PER_DAY

    for row in range(grid.n_lat):
        margin_deg = street_deg + lat_step_deg / 2.0
        half_width_hours = (
            margin_deg / max(cos_lat[row], 1e-3) * HOURS_PER_DAY / 360.0
            + grid.time_resolution_hours / 2.0
        )
        pass_times = [t for t in (ascending[row], descending[row]) if not np.isnan(t)]
        if not pass_times:
            latitude_deg = grid.latitudes_deg[row]
            if abs(latitude_deg) <= max_lat_deg + street_deg:
                pass_times = [north_turn_time if latitude_deg > 0 else south_turn_time]
            else:
                continue
        for pass_time in pass_times:
            delta = np.abs((local_times - pass_time + 12.0) % HOURS_PER_DAY - 12.0)
            mask[row, :] |= delta <= half_width_hours
    return mask


def reference_design(
    designer: GreedySSPlaneDesigner, demand: LatLocalTimeGrid
) -> GreedyCoverResult:
    """Per-iteration greedy cover with a fresh mask cache (one call's worth)."""
    remaining = demand.copy()
    planes: list[SSPlane] = []
    iterations = 0
    masks: dict[int, np.ndarray] = {}

    def mask_of(plane: SSPlane) -> np.ndarray:
        key = int(round(plane.ltan_hours * 3600.0))
        if key not in masks:
            masks[key] = reference_coverage_mask(plane, remaining)
        return masks[key]

    remaining.values[remaining.values < designer.demand_floor] = 0.0
    template = SSPlane(
        altitude_km=designer.altitude_km,
        ltan_hours=0.0,
        satellite_count=designer.satellites_per_plane(),
        min_elevation_deg=designer.min_elevation_deg,
        street_half_width_fraction=designer.street_half_width_fraction,
    )
    max_lat_deg = math.degrees(
        math.asin(min(1.0, abs(math.sin(template.inclination_rad))))
    ) + math.degrees(template.street_half_width_rad)
    unreachable = np.abs(remaining.latitudes_deg) > max_lat_deg
    clipped_demand = float(remaining.values[unreachable].sum())
    remaining.values[unreachable] = 0.0

    while remaining.total() > 1e-9 and iterations < designer.max_planes:
        iterations += 1
        peak_lat, peak_time, peak_value = remaining.peak()
        if peak_value <= 1e-9:
            break
        best_plane = None
        best_removed = -1.0
        for ascending in (True, False):
            try:
                offset = plane_local_time_offset_hours(
                    math.radians(peak_lat), template.inclination_rad, ascending=ascending
                )
                plane = replace(template, ltan_hours=(peak_time - offset) % 24.0)
            except ValueError:
                continue
            removed = float(np.minimum(remaining.values, 1.0)[mask_of(plane)].sum())
            if removed > best_removed:
                best_removed = removed
                best_plane = plane
        if best_plane is None:
            row, col = remaining.index_of(peak_lat, peak_time)
            clipped_demand += float(remaining.values[row, col])
            remaining.values[row, col] = 0.0
            continue
        planes.append(best_plane)
        mask = mask_of(best_plane)
        remaining.values[mask] = np.maximum(remaining.values[mask] - 1.0, 0.0)

    return GreedyCoverResult(
        planes=tuple(planes),
        total_satellites=sum(plane.satellite_count for plane in planes),
        residual_demand=float(remaining.total()) + clipped_demand,
        iterations=iterations,
    )


#: (latitude resolution [deg], time resolution [h]) of the oracle grids.
GRIDS = [(2.0, 1.0), (3.0, 1.0 / 3.0), (4.0, 2.0), (1.0, 0.5)]
ALTITUDES_KM = [400.0, 560.0, 1200.0]
LTANS_HOURS = [0.0, 0.25, 6.0, 10.5, 13.999, 20.5, 23.9999]


def _plane(altitude_km: float, ltan_hours: float, **kwargs) -> SSPlane:
    return SSPlane(
        altitude_km=altitude_km,
        ltan_hours=ltan_hours,
        satellite_count=satellites_per_plane(altitude_km, **kwargs),
        **kwargs,
    )


class TestCoverageMaskOracle:
    @pytest.mark.parametrize("lat_res, time_res", GRIDS)
    @pytest.mark.parametrize("altitude_km", ALTITUDES_KM)
    def test_matches_row_loop(self, lat_res, time_res, altitude_km):
        grid = LatLocalTimeGrid(lat_resolution_deg=lat_res, time_resolution_hours=time_res)
        rng = np.random.default_rng(int(lat_res * 100 + altitude_km))
        ltans = LTANS_HOURS + list(rng.uniform(0.0, 24.0, size=5))
        for ltan in ltans:
            for options in ({}, {"min_elevation_deg": 40.0, "street_half_width_fraction": 0.3}):
                plane = _plane(altitude_km, float(ltan), **options)
                np.testing.assert_array_equal(
                    plane.coverage_mask(grid), reference_coverage_mask(plane, grid)
                )

    @pytest.mark.parametrize("lat_res, time_res", GRIDS)
    def test_table_includes_turnaround_rows(self, lat_res, time_res):
        # Rows beyond the orbit's reach but inside the street are covered at
        # the turnaround time only; rows further out are never covered.
        grid = LatLocalTimeGrid(lat_resolution_deg=lat_res, time_resolution_hours=time_res)
        plane = _plane(560.0, 20.5)
        reach_deg = 180.0 - plane.inclination_deg
        street_deg = math.degrees(plane.street_half_width_rad)
        latitudes = np.abs(grid.latitudes_deg)
        turnaround = (latitudes > reach_deg) & (latitudes <= reach_deg + street_deg)
        beyond = latitudes > reach_deg + street_deg
        assert turnaround.any() and beyond.any()
        mask = plane.coverage_mask(grid)
        np.testing.assert_array_equal(mask, reference_coverage_mask(plane, grid))
        assert mask[turnaround].any(axis=1).all()
        assert not mask[beyond].any()


def _random_demand(rng, lat_res, time_res, ties: bool) -> LatLocalTimeGrid:
    grid = LatLocalTimeGrid(lat_resolution_deg=lat_res, time_resolution_hours=time_res)
    shape = grid.values.shape
    if ties:
        grid.values = rng.integers(0, 4, size=shape).astype(float)
        grid.values[rng.random(shape) < 0.7] = 0.0
    else:
        grid.values = rng.exponential(0.6, size=shape) * (rng.random(shape) < 0.25)
    return grid


class TestDesignOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_and_tie_heavy_demand(self, seed):
        rng = np.random.default_rng(seed)
        lat_res, time_res = GRIDS[seed % len(GRIDS)]
        demand = _random_demand(rng, lat_res, time_res, ties=seed % 2 == 0)
        designer = GreedySSPlaneDesigner(
            altitude_km=ALTITUDES_KM[seed % len(ALTITUDES_KM)],
            max_planes=[20000, 7, 40][seed % 3],
        )
        result = designer.design(demand)
        assert result.iterations > 0
        assert result == reference_design(designer, demand)

    def test_paper_demand_grid(self, demand_model):
        demand = demand_model.latitude_time_grid(
            lat_resolution_deg=2.0, time_resolution_hours=1.0, bandwidth_multiplier=10.0
        )
        designer = GreedySSPlaneDesigner()
        result = designer.design(demand)
        assert result.plane_count > 50
        assert result == reference_design(designer, demand)


def _single_cell(latitude_deg: float, value: float) -> LatLocalTimeGrid:
    grid = LatLocalTimeGrid(lat_resolution_deg=2.0, time_resolution_hours=1.0)
    row, col = grid.index_of(latitude_deg, 12.5)
    grid.values[row, col] = value
    return grid


class TestGreedyBranches:
    def test_peak_unreachable_is_clipped(self):
        # 83 deg lies past the orbit's ~82.4 deg reach but inside the street,
        # so the latitude pre-clip keeps it and neither branch can cross it.
        designer = GreedySSPlaneDesigner()
        demand = _single_cell(83.0, 2.0)
        result = designer.design(demand)
        assert result.plane_count == 0
        assert result.iterations == 1
        assert result.residual_demand == 2.0
        assert not result.satisfied
        assert result == reference_design(designer, demand)

    def test_max_planes_cap_stops_the_loop(self):
        designer = GreedySSPlaneDesigner(max_planes=3)
        demand = _single_cell(40.0, 5.5)
        result = designer.design(demand)
        assert result.plane_count == 3
        assert result.iterations == 3
        assert result.residual_demand == 2.5
        assert not result.satisfied
        assert result == reference_design(designer, demand)
