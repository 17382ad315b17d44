"""Endpoint traffic matrices for the network layer.

The constellation-design experiments of the paper only need the aggregate
(latitude, local-time) demand grid, but exploring the Section 5 implications
(routing, topology, traffic engineering over SS-plane constellations)
requires end-to-end flows between ground locations.  This module generates
such flows with a classic gravity model driven by the same synthetic
population grid, modulated in time by the same diurnal profile, so that the
network-layer workloads are consistent with the design-layer demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coverage.grid import LatLonGrid
from .diurnal import DiurnalProfile
from .population import METRO_AREAS, MetroArea

__all__ = ["City", "TrafficMatrix", "GravityTrafficModel"]


@dataclass(frozen=True)
class City:
    """A traffic endpoint: a city with a population-derived weight."""

    name: str
    latitude_deg: float
    longitude_deg: float
    weight: float

    @classmethod
    def from_metro(cls, metro: MetroArea) -> "City":
        """Build an endpoint from a metro-catalogue entry."""
        return cls(
            name=metro.name,
            latitude_deg=metro.latitude_deg,
            longitude_deg=metro.longitude_deg,
            weight=metro.population_millions,
        )


@dataclass
class TrafficMatrix:
    """A set of directed demands between cities at one instant.

    Attributes
    ----------
    cities:
        Endpoint list; row/column ``i`` of ``demands`` refers to
        ``cities[i]``.
    demands:
        Matrix of shape (n, n) in arbitrary bandwidth units (consistent with
        the satellite-capacity units used elsewhere when built through
        :class:`GravityTrafficModel`).
    """

    cities: tuple[City, ...]
    demands: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.cities)
        self.demands = np.asarray(self.demands, dtype=float)
        if self.demands.shape != (n, n):
            raise ValueError("demands must be a square matrix matching cities")
        if np.any(self.demands < 0):
            raise ValueError("demands must be non-negative")

    def total_demand(self) -> float:
        """Return the sum of all entries."""
        return float(self.demands.sum())

    def entry_arrays(
        self, names: "tuple[str, ...] | None" = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised export of the non-zero off-diagonal entries.

        Returns ``(src_ids, dst_ids, demand)`` where the id arrays index
        ``names`` (or ``self.cities`` when ``names`` is None).  Names with no
        matching city contribute no entries, mirroring how the per-object
        path skips endpoints absent from the matrix.  This is the columnar
        flow engine's entry point: one boolean mask over the demand
        submatrix instead of an n^2 Python loop.
        """
        if names is None:
            names = tuple(city.name for city in self.cities)
            positions = np.arange(len(self.cities))
            ids = positions
        else:
            by_name = {city.name: row for row, city in enumerate(self.cities)}
            located = [
                (index, by_name[name])
                for index, name in enumerate(names)
                if name in by_name
            ]
            if not located:
                empty_ids = np.empty(0, dtype=np.int64)
                return empty_ids, empty_ids.copy(), np.empty(0, dtype=float)
            ids = np.array([index for index, _ in located], dtype=np.int64)
            positions = np.array([row for _, row in located], dtype=np.int64)
        sub = self.demands[np.ix_(positions, positions)]
        mask = sub > 0.0
        np.fill_diagonal(mask, False)
        src_local, dst_local = np.nonzero(mask)
        return (
            ids[src_local].astype(np.int64),
            ids[dst_local].astype(np.int64),
            sub[src_local, dst_local].astype(float),
        )

    def top_flows(self, count: int = 10) -> list[tuple[str, str, float]]:
        """Return the ``count`` largest (source, destination, demand) flows."""
        flat = [
            (self.cities[i].name, self.cities[j].name, float(self.demands[i, j]))
            for i in range(len(self.cities))
            for j in range(len(self.cities))
            if i != j
        ]
        flat.sort(key=lambda item: item[2], reverse=True)
        return flat[:count]


def _default_cities() -> tuple[City, ...]:
    """Default gravity-model cities: metros of at least 3M people.

    A named module-level function (not a lambda) so models built with the
    default stay picklable for the process-executor sweep path.
    """
    return tuple(
        City.from_metro(m) for m in METRO_AREAS if m.population_millions >= 3.0
    )


@dataclass
class GravityTrafficModel:
    """Gravity-model traffic generator modulated by the diurnal cycle.

    Demand between cities ``i`` and ``j`` at UTC hour ``t`` is

        w_i(t) * w_j(t) / sum_k w_k(t)

    where ``w_i(t)`` is city ``i``'s population weight scaled by the diurnal
    fraction at ``i``'s local time.  The result is normalised so the total
    instantaneous demand equals ``total_demand`` (in satellite-capacity
    units), which lets network experiments sweep load the same way the design
    experiments sweep the bandwidth multiplier.
    """

    cities: tuple[City, ...] = field(default_factory=_default_cities)
    profile: DiurnalProfile = field(default_factory=DiurnalProfile)
    total_demand: float = 100.0

    def weights_at(self, utc_hour: float) -> np.ndarray:
        """Return the diurnally modulated weight of each city at a UTC hour.

        Every city's local time and diurnal fraction come from one array
        call over the profile.
        """
        count = len(self.cities)
        longitudes = np.fromiter(
            (city.longitude_deg for city in self.cities), dtype=float, count=count
        )
        weights = np.fromiter(
            (city.weight for city in self.cities), dtype=float, count=count
        )
        local_times = (utc_hour + longitudes / 15.0) % 24.0
        return weights * self.profile.fraction_of_median(local_times)

    def matrix_at(self, utc_hour: float) -> TrafficMatrix:
        """Return the gravity traffic matrix at a UTC hour."""
        weights = self.weights_at(utc_hour)
        total_weight = weights.sum()
        if total_weight <= 0:
            raise ValueError("total city weight must be positive")
        demands = np.outer(weights, weights) / total_weight
        np.fill_diagonal(demands, 0.0)
        demands *= self.total_demand / demands.sum()
        return TrafficMatrix(cities=self.cities, demands=demands)

    def offered_load_by_latitude(self, utc_hour: float, grid: LatLonGrid) -> LatLonGrid:
        """Return per-cell offered load (sum of a city's outgoing demand).

        Useful for sanity-checking that network-layer load matches the
        design-layer demand snapshots.
        """
        matrix = self.matrix_at(utc_hour)
        result = grid.copy()
        result.values = np.zeros_like(grid.values)
        outgoing = matrix.demands.sum(axis=1)
        for city, load in zip(matrix.cities, outgoing):
            result.add_at(city.latitude_deg, city.longitude_deg, float(load))
        return result
