"""Tests of daily fluence accumulation (Figures 7 and 10 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.orbits.elements import OrbitalElements
from repro.orbits.sunsync import sun_synchronous_inclination_deg
from repro.radiation.exposure import DailyFluence, daily_fluence_vs_inclination


class TestDailyFluence:
    def test_addition_and_scaling(self):
        a = DailyFluence(electron=1.0, proton=2.0)
        b = DailyFluence(electron=3.0, proton=4.0)
        assert (a + b).electron == 4.0
        assert a.scaled(2.0).proton == 4.0


class TestExposureCalculator:
    def test_magnitudes_at_560_km(self, exposure_calculator):
        fluence = exposure_calculator.daily_fluence_circular(560.0, 65.0)
        # Calibrated against the paper's reported ranges: electrons a few 1e9,
        # protons around 1e7 per cm^2 per MeV per day.
        assert 2e9 < fluence.electron < 3e10
        assert 3e6 < fluence.proton < 1e8

    def test_moderate_inclination_is_electron_worst_case(self, exposure_calculator):
        worst = exposure_calculator.daily_fluence_circular(560.0, 63.0).electron
        ss_inclination = sun_synchronous_inclination_deg(560.0)
        ss = exposure_calculator.daily_fluence_circular(560.0, ss_inclination).electron
        low = exposure_calculator.daily_fluence_circular(560.0, 45.0).electron
        assert worst > ss
        assert worst > low

    def test_sun_synchronous_cheaper_than_walker_inclinations(self, exposure_calculator):
        ss_inclination = sun_synchronous_inclination_deg(560.0)
        ss = exposure_calculator.daily_fluence_circular(560.0, ss_inclination)
        for inclination in (53.0, 63.0, 70.0):
            walker = exposure_calculator.daily_fluence_circular(560.0, inclination)
            assert ss.electron < walker.electron
            assert ss.proton < walker.proton

    def test_proton_exposure_decreases_with_inclination(self, exposure_calculator):
        low = exposure_calculator.daily_fluence_circular(560.0, 40.0).proton
        high = exposure_calculator.daily_fluence_circular(560.0, 90.0).proton
        assert low > high

    def test_constellation_fluence_caching(self, exposure_calculator):
        satellites = [
            OrbitalElements.circular(560.0, 65.0, true_anomaly_deg=phase)
            for phase in (0.0, 90.0, 180.0, 270.0)
        ]
        fluences = exposure_calculator.constellation_fluences(satellites)
        assert len(fluences) == 4
        # Same plane => identical daily fluence for every member.
        assert len({f.electron for f in fluences}) == 1

    def test_group_fluences_repeat_in_group_order(self, exposure_calculator):
        low = OrbitalElements.circular(560.0, 50.0)
        high = OrbitalElements.circular(560.0, 80.0)
        electron, proton = exposure_calculator.group_fluences([(low, 2), (high, 1), (low, 0)])
        expected = exposure_calculator.constellation_fluences([low, low, high])
        assert electron.tolist() == [f.electron for f in expected]
        assert proton.tolist() == [f.proton for f in expected]

    def test_group_fluences_of_no_groups_are_empty(self, exposure_calculator):
        electron, proton = exposure_calculator.group_fluences([])
        assert electron.shape == proton.shape == (0,)

    def test_median_constellation_fluence(self, exposure_calculator):
        satellites = [
            OrbitalElements.circular(560.0, 50.0),
            OrbitalElements.circular(560.0, 63.0),
            OrbitalElements.circular(560.0, 80.0),
        ]
        median = exposure_calculator.median_constellation_fluence(satellites)
        individual = sorted(
            exposure_calculator.daily_fluence(s).electron for s in satellites
        )
        assert median.electron == pytest.approx(individual[1])

    def test_empty_constellation_rejected(self, exposure_calculator):
        with pytest.raises(ValueError):
            exposure_calculator.median_constellation_fluence([])


class TestInclinationSweep:
    def test_sweep_shapes_and_peak(self, exposure_calculator):
        inclinations = np.array([45.0, 55.0, 63.0, 75.0, 90.0, 97.6])
        inc, electron, proton = daily_fluence_vs_inclination(
            560.0, inclinations, exposure_calculator
        )
        assert inc.shape == electron.shape == proton.shape == (6,)
        # Electron worst case within 55-75 degrees (the Van Allen horn band).
        assert 55.0 <= inc[int(np.argmax(electron))] <= 75.0
        # Protons decrease towards polar/SS inclinations.
        assert proton[0] > proton[-1]
