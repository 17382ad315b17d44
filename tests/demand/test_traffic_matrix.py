"""Tests of the gravity traffic-matrix generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.grid import LatLonGrid
from repro.demand.traffic_matrix import City, GravityTrafficModel, TrafficMatrix


class TestTrafficMatrix:
    def test_shape_validation(self):
        cities = (City("a", 0.0, 0.0, 1.0), City("b", 10.0, 10.0, 2.0))
        with pytest.raises(ValueError):
            TrafficMatrix(cities=cities, demands=np.zeros((3, 3)))

    def test_negative_rejected(self):
        cities = (City("a", 0.0, 0.0, 1.0), City("b", 10.0, 10.0, 2.0))
        with pytest.raises(ValueError):
            TrafficMatrix(cities=cities, demands=np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_top_flows_sorted(self):
        cities = (
            City("a", 0.0, 0.0, 1.0),
            City("b", 10.0, 10.0, 2.0),
            City("c", 20.0, 20.0, 3.0),
        )
        demands = np.array([[0.0, 5.0, 1.0], [2.0, 0.0, 7.0], [0.5, 0.2, 0.0]])
        matrix = TrafficMatrix(cities=cities, demands=demands)
        flows = matrix.top_flows(2)
        assert flows[0] == ("b", "c", 7.0)
        assert flows[1] == ("a", "b", 5.0)


class TestGravityModel:
    @pytest.fixture(scope="class")
    def model(self):
        return GravityTrafficModel(total_demand=100.0)

    def test_total_demand_normalised(self, model):
        matrix = model.matrix_at(12.0)
        assert matrix.total_demand() == pytest.approx(100.0)

    def test_diagonal_zero(self, model):
        matrix = model.matrix_at(0.0)
        assert np.all(np.diag(matrix.demands) == 0.0)

    def test_large_cities_exchange_most_traffic(self, model):
        matrix = model.matrix_at(12.0)
        names = {flow[0] for flow in matrix.top_flows(10)} | {
            flow[1] for flow in matrix.top_flows(10)
        }
        # The biggest flows involve the biggest metros.
        assert names & {"Tokyo", "Delhi", "Shanghai", "Sao Paulo", "Mexico City"}

    def test_weights_follow_local_time(self, model):
        # Tokyo (UTC+9) is in its evening peak around 11:00-12:00 UTC and in
        # the middle of the night around 18:00-19:00 UTC.
        weights_evening = model.weights_at(11.5)
        weights_night = model.weights_at(18.5)
        tokyo = next(i for i, c in enumerate(model.cities) if c.name == "Tokyo")
        assert weights_evening[tokyo] > weights_night[tokyo]

    def test_offered_load_grid(self, model):
        grid = LatLonGrid(resolution_deg=5.0)
        loaded = model.offered_load_by_latitude(12.0, grid)
        assert loaded.total() == pytest.approx(100.0, rel=1e-6)
        # The original grid is untouched.
        assert grid.total() == 0.0


class TestVectorisedWeights:
    """weights_at evaluates every city in one array call; the per-city
    scalar loop it replaced is the oracle, to the last bit."""

    @staticmethod
    def scalar_weights(model: GravityTrafficModel, utc_hour: float) -> np.ndarray:
        weights = np.empty(len(model.cities))
        for index, city in enumerate(model.cities):
            local_time = (utc_hour + city.longitude_deg / 15.0) % 24.0
            weights[index] = city.weight * float(
                model.profile.fraction_of_median(local_time)
            )
        return weights

    def test_matches_scalar_loop_at_every_half_hour(self):
        model = GravityTrafficModel()
        for step in range(48):
            utc_hour = step * 0.5
            np.testing.assert_array_equal(
                model.weights_at(utc_hour), self.scalar_weights(model, utc_hour)
            )

    def test_negative_longitudes_and_day_wrap(self):
        cities = tuple(
            City(f"c{index}", 0.0, longitude, 1.0 + index)
            for index, longitude in enumerate(
                (-180.0, -179.99, -74.0, -0.1, -1e-12, 0.0, 7.5, 139.7, 179.99, 180.0)
            )
        )
        model = GravityTrafficModel(cities=cities)
        for utc_hour in (0.0, 1e-9, 0.25, 11.9, 12.0, 23.5, 23.999999, 24.0, 30.5, -2.0):
            np.testing.assert_array_equal(
                model.weights_at(utc_hour), self.scalar_weights(model, utc_hour)
            )

    def test_no_cities(self):
        assert GravityTrafficModel(cities=()).weights_at(3.0).shape == (0,)
