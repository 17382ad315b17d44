"""Tests of Walker-delta generation, coverage checking and sizing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.coverage import walker
from repro.coverage.footprint import coverage_half_angle_rad
from repro.coverage.walker import (
    PROBE_STRIDE,
    WalkerDelta,
    circular_positions_eci,
    coverage_fraction,
    is_continuously_covered,
    minimum_walker_for_coverage,
    streets_of_coverage_size,
)


class TestWalkerDelta:
    def test_satellite_count(self):
        wd = WalkerDelta(560.0, 53.0, total_satellites=66, planes=6, phasing=1)
        assert len(wd.satellite_elements()) == 66
        assert wd.satellites_per_plane == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkerDelta(560.0, 53.0, total_satellites=10, planes=3)
        with pytest.raises(ValueError):
            WalkerDelta(560.0, 53.0, total_satellites=12, planes=3, phasing=3)

    def test_planes_evenly_spread(self):
        wd = WalkerDelta(560.0, 53.0, total_satellites=12, planes=4, phasing=1)
        raans = sorted({round(e.raan_deg, 6) for e in wd.satellite_elements()})
        assert raans == pytest.approx([0.0, 90.0, 180.0, 270.0])

    def test_all_share_inclination_and_altitude(self):
        wd = WalkerDelta(700.0, 65.0, total_satellites=20, planes=5, phasing=2)
        for elements in wd.satellite_elements():
            assert elements.inclination_deg == pytest.approx(65.0)
            assert elements.altitude_km == pytest.approx(700.0)

    def test_raan_and_phase_arrays_match_elements(self):
        wd = WalkerDelta(560.0, 53.0, total_satellites=12, planes=3, phasing=1)
        raan, phase = wd.raan_and_phase_rad()
        elements = wd.satellite_elements()
        np.testing.assert_allclose(raan, [e.raan_rad for e in elements], atol=1e-12)
        np.testing.assert_allclose(
            phase % (2 * math.pi), [e.true_anomaly_rad for e in elements], atol=1e-12
        )


class TestPositions:
    def test_radius(self):
        positions = circular_positions_eci(
            560.0, math.radians(53.0), np.array([0.0, 1.0]), np.array([0.0, 2.0])
        )
        radii = np.linalg.norm(positions, axis=1)
        np.testing.assert_allclose(radii, EARTH_RADIUS_KM + 560.0)

    def test_equator_start(self):
        positions = circular_positions_eci(560.0, math.radians(53.0), np.array([0.0]), np.array([0.0]))
        assert positions[0, 2] == pytest.approx(0.0)
        assert positions[0, 0] == pytest.approx(EARTH_RADIUS_KM + 560.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            circular_positions_eci(560.0, 1.0, np.zeros(3), np.zeros(4))


class TestCoverage:
    def test_single_satellite_covers_fraction(self):
        positions = circular_positions_eci(
            560.0, math.radians(0.0), np.array([0.0]), np.array([0.0])
        )
        half_angle = coverage_half_angle_rad(560.0, 25.0)
        fraction = coverage_fraction(positions, half_angle, grid_step_deg=5.0)
        assert 0.0 < fraction < 0.05

    def test_many_satellites_cover_more(self):
        wd_small = WalkerDelta(1200.0, 80.0, total_satellites=40, planes=5, phasing=1)
        wd_large = WalkerDelta(1200.0, 80.0, total_satellites=200, planes=10, phasing=1)
        half_angle = coverage_half_angle_rad(1200.0, 25.0)

        def fraction(wd):
            raan, phase = wd.raan_and_phase_rad()
            positions = circular_positions_eci(
                wd.altitude_km, math.radians(wd.inclination_deg), raan, phase
            )
            return coverage_fraction(positions, half_angle, grid_step_deg=6.0)

        assert fraction(wd_large) > fraction(wd_small)

    def test_continuous_coverage_check(self):
        # A generously sized constellation passes; a tiny one fails.
        big = WalkerDelta(1215.0, 65.0, total_satellites=300, planes=15, phasing=1)
        tiny = WalkerDelta(1215.0, 65.0, total_satellites=30, planes=5, phasing=1)
        assert is_continuously_covered(big, 25.0, grid_step_deg=8.0, time_samples=4)
        assert not is_continuously_covered(tiny, 25.0, grid_step_deg=8.0, time_samples=4)


class TestSizing:
    def test_streets_of_coverage_seed(self):
        planes, per_plane = streets_of_coverage_size(1215.0, 65.0, 25.0)
        assert planes >= 5
        assert per_plane >= 10

    def test_minimum_walker_1215_km(self):
        wd = minimum_walker_for_coverage(1215.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        # The paper quotes >= 200 satellites for uniform coverage at 1215 km;
        # our numerical sizing lands in the 120-260 range depending on the
        # latitude band required -- the important invariant is the magnitude.
        assert 100 <= wd.total_satellites <= 300

    def test_minimum_walker_decreases_with_altitude(self):
        low = minimum_walker_for_coverage(600.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        high = minimum_walker_for_coverage(1600.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        assert high.total_satellites < low.total_satellites

    def test_result_actually_covers(self):
        wd = minimum_walker_for_coverage(1215.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        assert is_continuously_covered(wd, 25.0, grid_step_deg=6.0, time_samples=5)


def reference_is_continuously_covered(
    constellation, min_elevation_deg, lat_limit_deg=None, grid_step_deg=5.0, time_samples=8
):
    """Test-only oracle: the full-grid ``coverage_fraction`` of every snapshot."""
    half_angle = coverage_half_angle_rad(constellation.altitude_km, min_elevation_deg)
    if lat_limit_deg is None:
        lat_limit_deg = min(constellation.inclination_deg, 180.0 - constellation.inclination_deg)
    raan, phase = constellation.raan_and_phase_rad()
    for sample in range(time_samples):
        positions = circular_positions_eci(
            constellation.altitude_km,
            math.radians(constellation.inclination_deg),
            raan,
            phase + 2.0 * math.pi * sample / time_samples,
        )
        if coverage_fraction(
            positions, half_angle, grid_step_deg=grid_step_deg, lat_limit_deg=lat_limit_deg
        ) < 1.0:
            return False
    return True


# The 1214.46 km repeat-ground-track altitude of the paper's Figure 1 sweep.
RGT_ALTITUDE_KM = 1214.4648523658875


class TestProbeVerdicts:
    """The probe-first check returns the full-grid verdict on every pattern."""

    @pytest.mark.parametrize("planes", [4, 8, 12, 16])
    def test_sats_per_plane_divisible_by_time_samples(self, planes):
        # 24 per plane with 6 samples: every sample is the same instant.
        wd = WalkerDelta(RGT_ALTITUDE_KM, 65.0, total_satellites=24 * planes, planes=planes)
        assert is_continuously_covered(
            wd, 25.0, grid_step_deg=6.0, time_samples=6
        ) == reference_is_continuously_covered(wd, 25.0, grid_step_deg=6.0, time_samples=6)

    @pytest.mark.parametrize(
        "altitude_km, inclination_deg, total, planes",
        [
            (RGT_ALTITUDE_KM, 65.0, 143, 11),
            (RGT_ALTITUDE_KM, 65.0, 140, 10),
            (560.0, 40.0, 350, 14),
        ],
    )
    def test_probe_pass_full_fail_falls_back_to_full_grid(
        self, altitude_km, inclination_deg, total, planes
    ):
        wd = WalkerDelta(altitude_km, inclination_deg, total_satellites=total, planes=planes)
        lat_limit = min(inclination_deg, 180.0 - inclination_deg)
        cos_half_angle = math.cos(coverage_half_angle_rad(altitude_km, 25.0))
        raan, phase = wd.raan_and_phase_rad()
        grid = walker._grid_unit_vectors(6.0, lat_limit)
        probe = grid[::PROBE_STRIDE]
        # Some snapshot passes the probe but leaves a full-grid point uncovered.
        fallback_rejections = 0
        for sample in range(6):
            sat_units = walker._unit_rows(
                circular_positions_eci(
                    altitude_km,
                    math.radians(inclination_deg),
                    raan,
                    phase + 2.0 * math.pi * sample / 6,
                )
            )
            probe_ok = walker._covered_points(probe, sat_units, cos_half_angle).all()
            grid_ok = walker._covered_points(grid, sat_units, cos_half_angle).all()
            fallback_rejections += bool(probe_ok and not grid_ok)
        assert fallback_rejections > 0
        assert not is_continuously_covered(wd, 25.0, grid_step_deg=6.0, time_samples=6)
        assert not reference_is_continuously_covered(wd, 25.0, grid_step_deg=6.0, time_samples=6)

    def test_search_verdicts_match_reference(self, monkeypatch):
        checked = []
        original = walker.is_continuously_covered

        def recording(constellation, *args, **kwargs):
            verdict = original(constellation, *args, **kwargs)
            checked.append((constellation, args, kwargs, verdict))
            return verdict

        monkeypatch.setattr(walker, "is_continuously_covered", recording)
        best = minimum_walker_for_coverage(
            RGT_ALTITUDE_KM, 65.0, 25.0, grid_step_deg=6.0, time_samples=6
        )
        assert (best.total_satellites, best.planes, best.phasing) == (144, 12, 1)
        # The minimum and every candidate before it, in ascending total.
        assert len(checked) == 138
        totals = [constellation.total_satellites for constellation, *_ in checked]
        assert totals == sorted(totals)
        assert [verdict for *_, verdict in checked] == [False] * 137 + [True]
        for constellation, args, kwargs, verdict in checked:
            assert reference_is_continuously_covered(constellation, *args, **kwargs) == verdict

    def test_default_lat_limit_matches_reference(self):
        for wd in (
            WalkerDelta(1215.0, 65.0, total_satellites=300, planes=15),
            WalkerDelta(1215.0, 65.0, total_satellites=30, planes=5),
            WalkerDelta(1215.0, 115.0, total_satellites=144, planes=12),
        ):
            assert is_continuously_covered(
                wd, 25.0, grid_step_deg=8.0, time_samples=4
            ) == reference_is_continuously_covered(wd, 25.0, grid_step_deg=8.0, time_samples=4)


class TestGridCache:
    def test_cached_grid_is_shared_and_read_only(self):
        grid = walker._grid_unit_vectors(6.0, 65.0)
        assert walker._grid_unit_vectors(6.0, 65.0) is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0

    def test_lat_limits_get_different_grids(self):
        narrow = walker._grid_unit_vectors(6.0, 40.0)
        wide = walker._grid_unit_vectors(6.0, 65.0)
        assert narrow is not wide
        assert len(narrow) < len(wide)
        assert np.abs(narrow[:, 2]).max() < math.sin(math.radians(40.0))
        assert np.abs(wide[:, 2]).max() > math.sin(math.radians(40.0))
