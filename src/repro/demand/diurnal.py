"""Diurnal (time-of-day) structure of Internet bandwidth demand.

The paper derives the temporal structure of demand from the
CESNET-TimeSeries24 dataset: a year of throughput measurements from 283 sites
across the Czech Republic, normalised per-site by the site median and grouped
by local time of day (its Figure 4).  This module provides a parametric
substitute with the same structural properties:

* demand bottoms out in the early-morning hours at a few tens of percent of
  the site median,
* it rises through the working day and peaks in the evening at a few hundred
  percent of the median,
* the cross-site spread is wide and right-skewed, so the 95th percentile sits
  roughly an order of magnitude above the median at peak hours.

:class:`DiurnalProfile` is the deterministic median curve used by the demand
grid; :class:`SyntheticTrafficDataset` generates per-site time series (median
curve x site scale x lognormal noise x per-site phase jitter) so that the
percentile-versus-time-of-day analysis of Figure 4 can be run end-to-end the
same way the paper runs it on CESNET data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..constants import HOURS_PER_DAY

__all__ = [
    "DEFAULT_HOURLY_PERCENT",
    "DiurnalProfile",
    "SyntheticTrafficDataset",
    "time_of_day_percentiles",
]


#: Typical hour-by-hour access-network load, in percent of the daily median.
#: The shape (deep trough around 04:00 local, steady climb through the working
#: day, evening peak around 20:00-21:00) matches the median curve the paper
#: extracts from CESNET-TimeSeries24 in its Figure 4.
DEFAULT_HOURLY_PERCENT: tuple[float, ...] = (
    70.0,  # 00h
    55.0,  # 01h
    46.0,  # 02h
    41.0,  # 03h
    38.0,  # 04h
    42.0,  # 05h
    55.0,  # 06h
    75.0,  # 07h
    95.0,  # 08h
    110.0,  # 09h
    120.0,  # 10h
    126.0,  # 11h
    130.0,  # 12h
    130.0,  # 13h
    132.0,  # 14h
    136.0,  # 15h
    142.0,  # 16h
    152.0,  # 17h
    168.0,  # 18h
    188.0,  # 19h
    205.0,  # 20h
    210.0,  # 21h
    160.0,  # 22h
    100.0,  # 23h
)


@dataclass(frozen=True)
class DiurnalProfile:
    """Median diurnal demand cycle, interpolated from an hourly table.

    The table gives demand at each hour of local time in percent of the daily
    median; values in between are obtained by periodic linear interpolation
    and the whole curve is re-normalised so its median over the day equals 1
    (matching the "percent of site median" normalisation the paper applies).
    The default table has a trough of ~38 % of the median around 04:00 local
    time and an evening peak of ~210 % around 21:00.

    Attributes
    ----------
    hourly_percent:
        24 values, one per hour of local time, in percent of the daily median.
    """

    hourly_percent: tuple[float, ...] = DEFAULT_HOURLY_PERCENT

    def __post_init__(self) -> None:
        if len(self.hourly_percent) != int(HOURS_PER_DAY):
            raise ValueError("hourly_percent must contain exactly 24 values")
        if any(value <= 0 for value in self.hourly_percent):
            raise ValueError("hourly_percent values must be positive")

    def _raw(self, hours: np.ndarray) -> np.ndarray:
        hours = np.asarray(hours, dtype=float)
        # Periodic linear interpolation: append hour 24 == hour 0.
        table_hours = np.arange(int(HOURS_PER_DAY) + 1, dtype=float)
        table_values = np.asarray(self.hourly_percent + (self.hourly_percent[0],))
        return np.interp(hours, table_hours, table_values)

    @cached_property
    def _normalisation(self) -> float:
        """Median of the raw curve over the day, computed once per profile."""
        sample_hours = np.linspace(0.0, HOURS_PER_DAY, 1440, endpoint=False)
        return float(np.median(self._raw(sample_hours)))

    def fraction_of_median(self, local_time_hours: float | np.ndarray) -> np.ndarray | float:
        """Return demand as a fraction of the daily median at a local time.

        Accepts scalars or arrays; hours outside [0, 24) are wrapped.
        """
        hours = np.mod(np.asarray(local_time_hours, dtype=float), HOURS_PER_DAY)
        values = self._raw(hours) / self._normalisation
        if np.isscalar(local_time_hours):
            return float(values)
        return values

    def peak_fraction(self) -> float:
        """Return the maximum of the median curve (fraction of the median)."""
        sample_hours = np.linspace(0.0, HOURS_PER_DAY, 1440, endpoint=False)
        return float(np.max(self.fraction_of_median(sample_hours)))

    def trough_fraction(self) -> float:
        """Return the minimum of the median curve (fraction of the median)."""
        sample_hours = np.linspace(0.0, HOURS_PER_DAY, 1440, endpoint=False)
        return float(np.min(self.fraction_of_median(sample_hours)))

    def peak_hour(self) -> float:
        """Return the local time (hours) at which the median curve peaks."""
        sample_hours = np.linspace(0.0, HOURS_PER_DAY, 1440, endpoint=False)
        values = self.fraction_of_median(sample_hours)
        return float(sample_hours[int(np.argmax(values))])


@dataclass
class SyntheticTrafficDataset:
    """Synthetic per-site traffic time series (CESNET-TimeSeries24 substitute).

    Each site draws a size scale from a lognormal distribution (institutional
    sites differ by orders of magnitude), a small phase jitter (different user
    populations peak at slightly different hours), a site-specific diurnal
    amplitude, and multiplicative lognormal measurement noise.

    Attributes
    ----------
    n_sites:
        Number of monitored sites (283 matches the CESNET dataset).
    n_days:
        Number of days of data to generate per site.
    samples_per_hour:
        Temporal resolution of the series.
    seed:
        Seed of the random generator, so every figure regeneration is
        deterministic.
    """

    n_sites: int = 283
    n_days: int = 28
    samples_per_hour: int = 4
    seed: int = 2025
    profile: DiurnalProfile = field(default_factory=DiurnalProfile)

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (local_time_hours, demand) arrays.

        ``local_time_hours`` has shape (n_samples,) and ``demand`` has shape
        (n_sites, n_samples); demand units are arbitrary (bytes per interval)
        since all analyses normalise by the per-site median.
        """
        rng = np.random.default_rng(self.seed)
        samples_per_day = int(HOURS_PER_DAY) * self.samples_per_hour
        n_samples = samples_per_day * self.n_days
        hours = np.arange(n_samples) / self.samples_per_hour % HOURS_PER_DAY

        site_scale = rng.lognormal(mean=0.0, sigma=1.6, size=self.n_sites)
        site_phase = rng.normal(loc=0.0, scale=1.2, size=self.n_sites)
        site_amplitude = rng.uniform(0.6, 1.3, size=self.n_sites)
        noise_sigma = rng.uniform(0.5, 1.0, size=self.n_sites)

        demand = np.empty((self.n_sites, n_samples))
        for site in range(self.n_sites):
            base = self.profile.fraction_of_median(hours - site_phase[site])
            base = base ** site_amplitude[site]
            noise = rng.lognormal(mean=0.0, sigma=noise_sigma[site], size=n_samples)
            demand[site] = site_scale[site] * base * noise
        return hours, demand


def time_of_day_percentiles(
    hours: np.ndarray,
    demand: np.ndarray,
    percentiles: tuple[float, ...] = (50.0, 95.0),
    bin_hours: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Group demand by local time of day and compute cross-site percentiles.

    This reproduces the paper's Figure 4 pipeline: each site's series is
    normalised by that site's median, all normalised samples are grouped into
    time-of-day bins, and the requested percentiles are taken over everything
    that falls in each bin.

    Returns
    -------
    (bin_centres_hours, percentile_values):
        ``percentile_values`` has shape (len(percentiles), n_bins) and is
        expressed in percent of the site median (so 100.0 means "equal to the
        median"), matching the paper's y-axis.
    """
    hours = np.asarray(hours, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2 or demand.shape[1] != hours.shape[0]:
        raise ValueError("demand must have shape (n_sites, n_samples)")
    if bin_hours <= 0 or HOURS_PER_DAY % bin_hours > 1e-9:
        raise ValueError("bin_hours must evenly divide 24")

    site_medians = np.median(demand, axis=1, keepdims=True)
    if np.any(site_medians <= 0):
        raise ValueError("every site must have a positive median demand")
    normalised = demand / site_medians * 100.0

    n_bins = int(round(HOURS_PER_DAY / bin_hours))
    bin_index = np.minimum((hours / bin_hours).astype(int), n_bins - 1)
    bin_centres = (np.arange(n_bins) + 0.5) * bin_hours

    values = np.empty((len(percentiles), n_bins))
    for b in range(n_bins):
        samples = normalised[:, bin_index == b].ravel()
        for p_index, percentile in enumerate(percentiles):
            values[p_index, b] = np.percentile(samples, percentile)
    return bin_centres, values
