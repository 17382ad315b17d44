"""Integration tests of the high-level designer, metrics and comparison sweep.

These are the tests that check the paper's evaluation-level claims end to end
on small/coarse instances (the benchmarks run the full-size versions).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core.comparison import ComparisonSweep, run_comparison_sweep
from repro.core.designer import ConstellationDesigner
from repro.core.metrics import ConstellationMetrics, MetricsCalculator
from repro.core.rgt_baseline import rgt_vs_walker_sweep
from repro.demand.spatiotemporal import SpatiotemporalDemandModel
from repro.orbits.elements import OrbitalElements
from repro.radiation.exposure import DailyFluence, ExposureCalculator


@pytest.fixture(scope="module")
def coarse_designer(population_grid_1deg_module=None):
    from repro.demand.population import synthetic_population_grid

    model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=2.0)
    )
    return ConstellationDesigner(
        demand_model=model,
        lat_resolution_deg=4.0,
        time_resolution_hours=2.0,
        metrics_calculator=MetricsCalculator(exposure=ExposureCalculator(step_s=180.0)),
    )


class TestConstellationDesigner:
    def test_demand_grid_scaling(self, coarse_designer):
        grid = coarse_designer.demand_grid(25.0)
        assert grid.values.max() == pytest.approx(25.0)

    def test_ss_design_satisfies_demand(self, coarse_designer):
        outcome = coarse_designer.design_ssplane(5.0)
        assert outcome.metrics.satisfied
        assert outcome.metrics.total_satellites > 0
        assert outcome.metrics.design == "ss-plane"

    def test_walker_design_satisfies_demand(self, coarse_designer):
        outcome = coarse_designer.design_walker(5.0)
        assert outcome.metrics.satisfied
        assert outcome.metrics.total_satellites > 0
        assert outcome.metrics.design == "walker"

    @pytest.mark.parametrize("multiplier", [3.0, 5.0])
    def test_design_both_builds_one_grid(self, coarse_designer, monkeypatch, multiplier):
        expected = (
            coarse_designer.design_ssplane(multiplier),
            coarse_designer.design_walker(multiplier),
        )
        builds = []
        original = SpatiotemporalDemandModel.latitude_time_grid

        def counting(model, *args, **kwargs):
            builds.append(kwargs.get("bandwidth_multiplier"))
            return original(model, *args, **kwargs)

        monkeypatch.setattr(SpatiotemporalDemandModel, "latitude_time_grid", counting)
        outcomes = coarse_designer.design_both(multiplier)
        assert builds == [multiplier]
        assert outcomes[0] == expected[0]
        assert outcomes[1] == expected[1]

    def test_ss_uses_fewer_satellites_than_walker(self, coarse_designer):
        # The paper's Figure 9 headline: SS-plane designs need fewer
        # satellites than the Walker baseline at the same demand.
        ss, walker = coarse_designer.design_both(5.0)
        assert ss.total_satellites < walker.total_satellites

    def test_ss_radiation_below_walker(self, coarse_designer):
        # The paper's Figure 10 headline: lower median radiation for SS.
        ss, walker = coarse_designer.design_both(5.0)
        assert ss.metrics.median_electron_fluence < walker.metrics.median_electron_fluence
        assert ss.metrics.median_proton_fluence < walker.metrics.median_proton_fluence

    def test_satellite_counts_grow_with_demand(self, coarse_designer):
        small_ss = coarse_designer.design_ssplane(3.0).total_satellites
        large_ss = coarse_designer.design_ssplane(12.0).total_satellites
        assert large_ss > small_ss

    def test_advantage_shrinks_as_demand_grows(self, coarse_designer):
        # Figure 9: the SS advantage is largest at low demand and shrinks as
        # the demand grid saturates.
        low_ss, low_wd = coarse_designer.design_both(3.0)
        high_ss, high_wd = coarse_designer.design_both(30.0)
        low_ratio = low_wd.total_satellites / low_ss.total_satellites
        high_ratio = high_wd.total_satellites / high_ss.total_satellites
        assert low_ratio > high_ratio


def _expanded_reference(exposure, design, groups, result, plane_count):
    """Metrics the slow way: one list entry per satellite, then median/mean."""
    satellites = []
    for elements, count in groups:
        satellites.extend([elements] * count)
    fluences = exposure.constellation_fluences(satellites)
    electrons = np.array([f.electron for f in fluences])
    protons = np.array([f.proton for f in fluences])
    return ConstellationMetrics(
        design=design,
        total_satellites=result.total_satellites,
        plane_count=plane_count,
        median_fluence=DailyFluence(float(np.median(electrons)), float(np.median(protons))),
        mean_fluence=DailyFluence(float(np.mean(electrons)), float(np.mean(protons))),
        satisfied=result.satisfied,
    )


def _ss_groups(result):
    return [(plane.satellite_elements()[0], plane.satellite_count) for plane in result.planes]


def _walker_groups(result):
    return [
        (
            OrbitalElements.circular(
                altitude_km=shell.altitude_km, inclination_deg=shell.inclination_deg
            ),
            shell.satellite_count,
        )
        for shell in result.shells
    ]


def _fluence_key(elements):
    return (
        round(elements.altitude_km, 3),
        round(elements.inclination_deg, 3),
        round(elements.raan_deg, 1),
    )


class TestGroupedMetrics:
    @pytest.mark.parametrize("multiplier", [3.0, 12.0])
    def test_matches_expanded_reference_exactly(self, coarse_designer, multiplier):
        ss, walker = coarse_designer.design_both(multiplier)
        reference = ExposureCalculator(step_s=180.0)
        assert ss.metrics == _expanded_reference(
            reference, "ss-plane", _ss_groups(ss.result), ss.result, ss.result.plane_count
        )
        assert walker.metrics == _expanded_reference(
            reference,
            "walker",
            _walker_groups(walker.result),
            walker.result,
            walker.result.shell_count,
        )

    def test_plane_representative_is_first_satellite(self, coarse_designer):
        result = coarse_designer.design_ssplane(5.0).result
        for plane in result.planes:
            assert plane.orbit.to_elements() == plane.satellite_elements()[0]

    def test_one_daily_fluence_per_distinct_orbit(self, coarse_designer, monkeypatch):
        ss, walker = coarse_designer.design_both(5.0)
        calls = []
        original = ExposureCalculator.daily_fluence

        def counting(self, elements, *args, **kwargs):
            calls.append(_fluence_key(elements))
            return original(self, elements, *args, **kwargs)

        monkeypatch.setattr(ExposureCalculator, "daily_fluence", counting)
        calculator = MetricsCalculator(exposure=ExposureCalculator(step_s=180.0))
        first = (calculator.for_ssplane(ss.result), calculator.for_walker(walker.result))
        again = (calculator.for_ssplane(ss.result), calculator.for_walker(walker.result))
        assert again == first
        keys = {
            _fluence_key(elements)
            for elements, _ in _ss_groups(ss.result) + _walker_groups(walker.result)
        }
        assert sorted(calls) == sorted(keys)

    def test_calculators_never_share_fluences(self):
        elements = OrbitalElements.circular(560.0, 53.0)
        coarse = ExposureCalculator(step_s=300.0)
        coarse_electron, _ = coarse.group_fluences([(elements, 1)])
        for fine in (ExposureCalculator(step_s=120.0), replace(coarse, step_s=120.0)):
            fine_electron, _ = fine.group_fluences([(elements, 1)])
            assert fine_electron[0] == fine.daily_fluence(elements).electron
            assert fine_electron[0] != coarse_electron[0]
        assert coarse_electron[0] == coarse.daily_fluence(elements).electron

    def test_exposure_calculator_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ExposureCalculator().step_s = 30.0


class TestEmptyDesigns:
    def test_empty_design_has_nan_fluence_without_warnings(self, coarse_designer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ss, walker = coarse_designer.design_both(0.001)
        for outcome in (ss, walker):
            assert outcome.total_satellites == 0
            assert math.isnan(outcome.metrics.median_electron_fluence)
            assert math.isnan(outcome.metrics.mean_fluence.proton)

    def test_claims_independent_of_point_order(self, coarse_designer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward = run_comparison_sweep((0.001, 3.0), designer=coarse_designer)
            backward = run_comparison_sweep((3.0, 0.001), designer=coarse_designer)
        empty = forward.points[0]
        assert empty.satellite_reduction_factor == 1.0
        assert math.isnan(empty.electron_reduction_percent)
        claims = forward.headline_claims()
        assert claims == backward.headline_claims()
        assert not math.isnan(claims.max_electron_reduction_percent)

    def test_all_empty_sweep_rejected(self, coarse_designer):
        sweep = run_comparison_sweep((0.001,), designer=coarse_designer)
        with pytest.raises(ValueError):
            sweep.headline_claims()


class TestComparisonSweep:
    def test_sweep_points_and_claims(self, coarse_designer):
        sweep = run_comparison_sweep((3.0, 10.0), designer=coarse_designer)
        assert len(sweep.points) == 2
        claims = sweep.headline_claims()
        assert claims.max_satellite_reduction_factor > 1.0
        assert claims.max_electron_reduction_percent > 0.0
        assert claims.max_proton_reduction_percent > 0.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ComparisonSweep().headline_claims()


class TestRGTBaseline:
    def test_figure1_ordering(self):
        points = rgt_vs_walker_sweep(
            inclination_deg=65.0,
            min_altitude_km=1000.0,
            max_altitude_km=1700.0,
            walker_grid_step_deg=6.0,
            walker_time_samples=5,
        )
        assert len(points) >= 2
        # Covering a single RGT is never cheaper than the Walker baseline.
        for point in points:
            assert point.rgt_worse or point.rgt_satellites == point.walker_satellites
