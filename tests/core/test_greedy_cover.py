"""Tests of the greedy SS-plane covering algorithm (Section 4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.grid import LatLocalTimeGrid
from repro.core.greedy_cover import GreedySSPlaneDesigner


def _empty_grid() -> LatLocalTimeGrid:
    return LatLocalTimeGrid(lat_resolution_deg=4.0, time_resolution_hours=1.0)


@pytest.fixture()
def designer() -> GreedySSPlaneDesigner:
    return GreedySSPlaneDesigner(altitude_km=560.0, min_elevation_deg=25.0)


class TestGreedyCover:
    def test_empty_demand_needs_no_planes(self, designer):
        result = designer.design(_empty_grid())
        assert result.plane_count == 0
        assert result.total_satellites == 0
        assert result.satisfied

    def test_single_cell_demand(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 3.0
        result = designer.design(grid)
        assert result.satisfied
        # Three units of demand at one cell need exactly three planes.
        assert result.plane_count == 3
        assert result.total_satellites == 3 * designer.satellites_per_plane()

    def test_planes_pass_through_demand_cell(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 2.0
        result = designer.design(grid)
        for plane in result.planes:
            assert plane.coverage_mask(grid)[row, col]

    def test_demand_spread_over_time_needs_multiple_ltans(self, designer):
        grid = _empty_grid()
        for hour in (2.5, 8.5, 14.5, 20.5):
            row, col = grid.index_of(30.0, hour)
            grid.values[row, col] = 1.0
        result = designer.design(grid)
        assert result.satisfied
        assert result.plane_count >= 2
        assert len(set(round(l, 3) for l in result.ltans_hours())) >= 2

    def test_demand_does_not_mutate_input(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 2.0
        before = grid.values.copy()
        designer.design(grid)
        np.testing.assert_array_equal(grid.values, before)

    def test_below_floor_demand_ignored(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = designer.demand_floor / 10.0
        result = designer.design(grid)
        assert result.plane_count == 0
        assert result.satisfied

    def test_more_demand_needs_no_fewer_planes(self, designer):
        low = _empty_grid()
        high = _empty_grid()
        for hour in range(24):
            row, col = low.index_of(30.0, hour + 0.5)
            low.values[row, col] = 1.0
            high.values[row, col] = 3.0
        assert (
            designer.design(high).plane_count >= designer.design(low).plane_count
        )

    def test_max_planes_bound_respected(self):
        bounded = GreedySSPlaneDesigner(altitude_km=560.0, max_planes=2)
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 10.0
        result = bounded.design(grid)
        assert result.plane_count == 2
        assert not result.satisfied
        assert result.residual_demand > 0.0


class TestReusedDesigner:
    @pytest.mark.parametrize(
        "attribute, value", [("min_elevation_deg", 40.0), ("street_half_width_fraction", 0.3)]
    )
    def test_changed_street_is_not_served_stale_masks(self, attribute, value):
        # A block of demand on a fine local-time axis: which LTANs cover it
        # depends on how many columns the street spans.
        grid = LatLocalTimeGrid(lat_resolution_deg=2.0, time_resolution_hours=1.0 / 3.0)
        band = (grid.latitudes_deg > 20.0) & (grid.latitudes_deg < 50.0)
        grid.values[band, 24:48] = 1.5
        reused = GreedySSPlaneDesigner()
        first = reused.design(grid)
        setattr(reused, attribute, value)
        fresh = GreedySSPlaneDesigner(**{attribute: value})
        assert reused.design(grid) == fresh.design(grid)
        assert GreedySSPlaneDesigner().design(grid) == first
