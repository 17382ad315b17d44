"""Tests of the diurnal demand profile and synthetic traffic dataset (Figure 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.demand.diurnal import (
    DEFAULT_HOURLY_PERCENT,
    DiurnalProfile,
    SyntheticTrafficDataset,
    time_of_day_percentiles,
)


class TestDiurnalProfile:
    def test_median_normalisation(self):
        profile = DiurnalProfile()
        hours = np.linspace(0.0, 24.0, 1440, endpoint=False)
        assert float(np.median(profile.fraction_of_median(hours))) == pytest.approx(
            1.0, abs=0.02
        )

    def test_trough_in_early_morning(self):
        profile = DiurnalProfile()
        hours = np.linspace(0.0, 24.0, 1440, endpoint=False)
        values = profile.fraction_of_median(hours)
        trough_hour = hours[int(np.argmin(values))]
        assert 2.0 <= trough_hour <= 6.0
        assert profile.trough_fraction() < 0.6

    def test_peak_in_evening(self):
        profile = DiurnalProfile()
        assert 18.0 <= profile.peak_hour() <= 23.0
        assert profile.peak_fraction() > 1.5

    def test_wraps_hours(self):
        profile = DiurnalProfile()
        assert profile.fraction_of_median(25.0) == pytest.approx(
            profile.fraction_of_median(1.0)
        )
        assert profile.fraction_of_median(-2.0) == pytest.approx(
            profile.fraction_of_median(22.0)
        )

    @given(st.floats(min_value=0.0, max_value=48.0))
    def test_always_positive(self, hour):
        assert DiurnalProfile().fraction_of_median(hour) > 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_percent=(100.0,) * 23)
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_percent=(0.0,) + DEFAULT_HOURLY_PERCENT[1:])

    def test_scalar_and_array_agree(self):
        profile = DiurnalProfile()
        array = profile.fraction_of_median(np.array([3.0, 12.0, 21.0]))
        for index, hour in enumerate((3.0, 12.0, 21.0)):
            assert array[index] == pytest.approx(profile.fraction_of_median(hour))

    def test_normalisation_computed_once_and_exact(self):
        profile = DiurnalProfile()
        hours = np.linspace(0.0, 24.0, 1440, endpoint=False)
        first = profile.fraction_of_median(hours)
        # The day's median is cached on the (frozen) profile after first use
        # and equals a fresh computation bit for bit.
        assert "_normalisation" in vars(profile)
        assert profile._normalisation == float(np.median(profile._raw(hours)))
        np.testing.assert_array_equal(profile.fraction_of_median(hours), first)
        assert profile == DiurnalProfile()


class TestSyntheticDataset:
    def test_shapes(self):
        dataset = SyntheticTrafficDataset(n_sites=20, n_days=3)
        hours, demand = dataset.generate()
        assert demand.shape == (20, hours.shape[0])
        assert hours.shape[0] == 3 * 24 * dataset.samples_per_hour

    def test_deterministic_with_seed(self):
        a = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=11).generate()[1]
        b = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=11).generate()[1]
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=1).generate()[1]
        b = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=2).generate()[1]
        assert not np.array_equal(a, b)

    def test_all_positive(self):
        _, demand = SyntheticTrafficDataset(n_sites=10, n_days=2).generate()
        assert np.all(demand > 0)


class TestPercentiles:
    @pytest.fixture(scope="class")
    def percentile_data(self):
        dataset = SyntheticTrafficDataset(n_sites=80, n_days=7, seed=3)
        hours, demand = dataset.generate()
        centres, values = time_of_day_percentiles(hours, demand)
        return centres, values

    def test_shapes(self, percentile_data):
        centres, values = percentile_data
        assert centres.shape == (24,)
        assert values.shape == (2, 24)

    def test_evening_peak_above_morning_trough(self, percentile_data):
        _, values = percentile_data
        median_curve = values[0]
        assert median_curve[20] > 2.0 * median_curve[4]

    def test_95th_above_median(self, percentile_data):
        _, values = percentile_data
        assert np.all(values[1] >= values[0])

    def test_median_curve_in_percent(self, percentile_data):
        _, values = percentile_data
        # Values are percent-of-median: the daily mid-range should straddle 100.
        assert values[0].min() < 100.0 < values[0].max()

    def test_validation(self):
        with pytest.raises(ValueError):
            time_of_day_percentiles(np.arange(10.0), np.ones((3, 5)))
        with pytest.raises(ValueError):
            time_of_day_percentiles(np.arange(10.0), np.ones((3, 10)), bin_hours=7.0)
