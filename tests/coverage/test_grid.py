"""Tests of the latitude/longitude and latitude/local-time grids."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import EARTH_MEAN_RADIUS_KM
from repro.coverage.grid import LatLocalTimeGrid, LatLonGrid


class TestLatLonGrid:
    def test_shape(self):
        grid = LatLonGrid(resolution_deg=0.5)
        assert grid.values.shape == (360, 720)
        assert grid.latitudes_deg[0] == pytest.approx(-89.75)
        assert grid.longitudes_deg[-1] == pytest.approx(179.75)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            LatLonGrid(resolution_deg=0.7)

    def test_fractional_resolutions_accepted(self):
        # Regression: float modulo made 180.0 % 0.1 come out near 0.1, so
        # evenly dividing fractional resolutions were wrongly rejected.
        grid = LatLonGrid(resolution_deg=0.1)
        assert grid.values.shape == (1800, 3600)
        assert LatLonGrid(resolution_deg=0.25).values.shape == (720, 1440)

    def test_values_shape_checked(self):
        with pytest.raises(ValueError):
            LatLonGrid(resolution_deg=1.0, values=np.zeros((10, 10)))

    def test_total_cell_area_is_earth_surface(self):
        grid = LatLonGrid(resolution_deg=5.0)
        total = grid.cell_area_km2().sum()
        expected = 4.0 * np.pi * EARTH_MEAN_RADIUS_KM**2
        assert total == pytest.approx(expected, rel=1e-9)

    @given(
        st.floats(min_value=-90.0, max_value=90.0),
        st.floats(min_value=-360.0, max_value=360.0),
    )
    def test_index_in_bounds(self, lat, lon):
        grid = LatLonGrid(resolution_deg=2.0)
        row, col = grid.index_of(lat, lon)
        assert 0 <= row < grid.n_lat
        assert 0 <= col < grid.n_lon

    def test_add_and_read_back(self):
        grid = LatLonGrid(resolution_deg=1.0)
        grid.add_at(48.85, 2.35, 7.5)
        assert grid.value_at(48.85, 2.35) == pytest.approx(7.5)
        assert grid.value_at(-48.85, 2.35) == 0.0

    def test_max_over_longitude(self):
        grid = LatLonGrid(resolution_deg=10.0)
        grid.add_at(45.0, 100.0, 3.0)
        grid.add_at(45.0, -100.0, 5.0)
        row, _ = grid.index_of(45.0, 0.0)
        assert grid.max_over_longitude()[row] == 5.0

    def test_copy_is_independent(self):
        grid = LatLonGrid(resolution_deg=10.0)
        other = grid.copy()
        other.add_at(0.0, 0.0, 1.0)
        assert grid.total() == 0.0


class TestLatLocalTimeGrid:
    def test_shape(self):
        grid = LatLocalTimeGrid(lat_resolution_deg=2.0, time_resolution_hours=1.0)
        assert grid.values.shape == (90, 24)
        assert grid.local_times_hours[0] == pytest.approx(0.5)

    def test_invalid_resolutions(self):
        with pytest.raises(ValueError):
            LatLocalTimeGrid(lat_resolution_deg=7.0, time_resolution_hours=1.0)
        with pytest.raises(ValueError):
            LatLocalTimeGrid(lat_resolution_deg=2.0, time_resolution_hours=5.0)

    def test_fractional_resolutions_accepted(self):
        # Regression: 24 % 0.1 suffers the same float-modulo failure as the
        # latitude check; both axes must accept evenly dividing fractions.
        grid = LatLocalTimeGrid(lat_resolution_deg=0.1, time_resolution_hours=0.1)
        assert grid.values.shape == (1800, 240)

    def test_index_wraps_time(self):
        grid = LatLocalTimeGrid(lat_resolution_deg=2.0, time_resolution_hours=1.0)
        assert grid.index_of(0.0, 24.5) == grid.index_of(0.0, 0.5)

    def test_peak(self):
        grid = LatLocalTimeGrid(lat_resolution_deg=2.0, time_resolution_hours=1.0)
        row, col = grid.index_of(35.0, 20.5)
        grid.values[row, col] = 42.0
        peak_lat, peak_time, peak_value = grid.peak()
        assert peak_value == 42.0
        assert peak_lat == pytest.approx(35.0, abs=1.0)
        assert peak_time == pytest.approx(20.5, abs=0.5)

    @pytest.mark.parametrize(
        "lat_resolution_deg, time_resolution_hours",
        [(0.1, 0.1), (0.1, 1 / 3), (0.2, 0.25), (1 / 3, 1 / 3), (0.5, 0.5), (1.0, 1.0),
         (2.0, 1 / 3), (6.0, 2.0)],
    )
    def test_peak_equals_cell_centre_arrays_exactly(
        self, lat_resolution_deg, time_resolution_hours
    ):
        grid = LatLocalTimeGrid(lat_resolution_deg, time_resolution_hours)
        latitudes, local_times = grid.latitudes_deg, grid.local_times_hours
        # Walk the diagonal (wrapping) so every row and every column is the peak once.
        for step in range(max(grid.n_lat, grid.n_time)):
            row, col = step % grid.n_lat, step % grid.n_time
            grid.values[row, col] = 1.0 + step
            assert grid.peak() == (latitudes[row], local_times[col], grid.values[row, col])
            grid.values[row, col] = 0.0

    def test_subtract_clamped(self):
        grid = LatLocalTimeGrid(lat_resolution_deg=30.0, time_resolution_hours=12.0)
        grid.values[:] = 0.5
        grid.subtract_clamped(np.ones_like(grid.values))
        assert grid.total() == 0.0

    def test_subtract_clamped_shape_mismatch(self):
        grid = LatLocalTimeGrid(lat_resolution_deg=30.0, time_resolution_hours=12.0)
        with pytest.raises(ValueError):
            grid.subtract_clamped(np.ones((2, 2)))

    def test_copy_independent(self):
        grid = LatLocalTimeGrid(lat_resolution_deg=30.0, time_resolution_hours=12.0)
        copy = grid.copy()
        copy.values[:] = 9.0
        assert grid.total() == 0.0


class TestGridIdentity:
    """Grids compare by identity: ``==`` on their value arrays would be ambiguous."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LatLonGrid(resolution_deg=30.0),
            lambda: LatLocalTimeGrid(lat_resolution_deg=30.0, time_resolution_hours=12.0),
        ],
    )
    def test_equality_and_membership_do_not_raise(self, make):
        grid, twin = make(), make()
        assert grid == grid
        assert grid != twin
        assert grid != grid.copy()
        assert grid in [twin, grid]
        assert grid not in [twin]
        assert len({grid, twin}) == 2
