"""Steered scenarios share route tables whenever steering is idle.

A steered step whose :meth:`SteeringController.steer` returns its input
routes on its snapshot group's shared router and route cache; only a step
that changes the weights builds a private router.  The oracle here is the
always-private path of earlier engine revisions: a wrapper around the step
evaluation that withholds the shared router and route cache from every
steered step, so each one routes on a private router with no cache.  Every
:class:`StepStatistics` must be equal, on every executor and both routing
backends, whether steering engages or not; and an idle steered scenario
must add no route search to its group.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.backends import CSGraphBackend, NetworkXBackend
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.steering import (
    STEERING_POLICIES,
    CongestionAwareSteering,
    SteeringController,
)
from repro.network.topology import ConstellationTopology

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Sydney", -33.9, 151.2, 5.3),
    City("Lagos", 6.5, 3.4, 15.0),
)

FAULTS = (
    ("plane_outage", {"count": 1, "seed": 7}),
    ("link_degradation", {"factor": 0.25, "fraction": 0.1, "seed": 3}),
)

#: Demand levels: at ``ENGAGED`` steering changes the routes of most steps
#: and idles on others; at ``IDLE`` the default policy never engages.
ENGAGED = 400.0
IDLE = 2.0


@dataclass(frozen=True)
class _StickySteering(CongestionAwareSteering):
    """Engages at once and never lets go: steers (and reroutes) often."""

    name: ClassVar[str] = "sticky-congestion-sharing-test"
    alpha: float = 0.9
    enter_band: float = 0.5
    exit_band: float = 0.0
    cooldown_steps: int = 0
    penalty: float = 12.0


@pytest.fixture(scope="module", autouse=True)
def sticky_policy():
    # Registered before any process pool forks, so workers resolve it too.
    STEERING_POLICIES[_StickySteering.name] = _StickySteering()
    yield
    del STEERING_POLICIES[_StickySteering.name]


@pytest.fixture
def always_private(monkeypatch):
    """Route every steered step privately, with no shared cache (the oracle)."""
    evaluate = NetworkSimulator._evaluate_scenario_step

    def private(router, *args, route_cache=None, steering_controller=None, **kwargs):
        if steering_controller is not None:
            router = route_cache = None
        return evaluate(
            router,
            *args,
            route_cache=route_cache,
            steering_controller=steering_controller,
            **kwargs,
        )

    def apply():
        monkeypatch.setattr(
            NetworkSimulator, "_evaluate_scenario_step", staticmethod(private)
        )

    return apply


@pytest.fixture(scope="module")
def topology(epoch) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=120, planes=8, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    return ConstellationTopology(planes=planes, epoch=epoch)


def _simulator(topology, total_demand: float) -> NetworkSimulator:
    return NetworkSimulator(
        topology=topology,
        ground_stations=[
            GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES
        ],
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=total_demand),
        flows_per_step=20,
    )


def _scenarios(steering: str, with_open_loop: bool = True) -> list[Scenario]:
    """The benchmark's scenario mix, with the steered scenario's policy swapped."""
    steered = Scenario(
        name="faulted_steered",
        allocator="proportional_array",
        faults=FAULTS,
        steering=steering,
    )
    if not with_open_loop:
        return [Scenario(name="healthy", allocator="proportional_array"), steered]
    return [
        Scenario(name="healthy", allocator="proportional_array"),
        Scenario(name="faulted", allocator="proportional_array", faults=FAULTS),
        steered,
        Scenario(
            name="peak_maxmin",
            demand_multiplier=2.0,
            allocator="max_min_array",
            telemetry="sketch",
        ),
    ]


def _sweep(simulator, epoch, scenarios, backend, executor, flow_engine="columnar"):
    kwargs = {}
    if executor != "serial":
        kwargs = {"executor": executor, "max_workers": 2}
    return simulator.run_scenarios(
        scenarios,
        epoch,
        4.0,
        step_hours=0.25,
        backend=backend,
        flow_engine=flow_engine,
        **kwargs,
    )


def _assert_same(production, oracle):
    assert list(production) == list(oracle)
    for (name, ours), reference in zip(production.items(), oracle.values()):
        assert ours.steps == reference.steps, name


#: (policy, demand) cases: sticky steering changes the routes of most
#: steps; the benchmark's policy at high demand steers on a few steps and
#: idles on the rest; at low demand it never engages.
CASES = {
    "engaged": (_StickySteering.name, ENGAGED),
    "mixed": ("congestion-aware", ENGAGED),
    "idle": ("congestion-aware", IDLE),
}


class TestBitIdentityWithPrivateOracle:
    @pytest.mark.parametrize("backend", ["csgraph", "networkx"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_always_private_path(
        self, topology, epoch, always_private, backend, executor, case
    ):
        policy, total_demand = CASES[case]
        simulator = _simulator(topology, total_demand)
        production = _sweep(simulator, epoch, _scenarios(policy), backend, executor)
        always_private()
        oracle = _sweep(simulator, epoch, _scenarios(policy), backend, executor)
        _assert_same(production, oracle)
        reroutes = sum(
            step.steering_reroutes for step in production["faulted_steered"].steps
        )
        assert (reroutes > 0) == (case != "idle")

    @pytest.mark.parametrize("backend", ["csgraph", "networkx"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_steered_scenario_alone_in_its_group(
        self, topology, epoch, always_private, backend, executor
    ):
        """No open-loop consumer shares the steered scenario's group (the
        graph backend then has no graph stream for it)."""
        simulator = _simulator(topology, ENGAGED)
        scenarios = _scenarios(_StickySteering.name, with_open_loop=False)
        production = _sweep(simulator, epoch, scenarios, backend, executor)
        always_private()
        oracle = _sweep(simulator, epoch, scenarios, backend, executor)
        _assert_same(production, oracle)

    def test_object_engine_matches(self, topology, epoch, always_private):
        simulator = _simulator(topology, ENGAGED)
        scenarios = _scenarios(_StickySteering.name)
        production = _sweep(
            simulator, epoch, scenarios, "csgraph", "serial", flow_engine="objects"
        )
        always_private()
        oracle = _sweep(
            simulator, epoch, scenarios, "csgraph", "serial", flow_engine="objects"
        )
        _assert_same(production, oracle)

    def test_engaged_case_changes_routes(self, topology, epoch):
        """The engaged case is a real test: steering moves its statistics."""
        simulator = _simulator(topology, ENGAGED)
        steered = _sweep(
            simulator, epoch, _scenarios(_StickySteering.name), "csgraph", "serial"
        )["faulted_steered"]
        static = _sweep(
            simulator, epoch, _scenarios("static"), "csgraph", "serial"
        )["faulted_steered"]
        moved = sum(
            (a.delivered_gbps, a.mean_latency_ms) != (b.delivered_gbps, b.mean_latency_ms)
            for a, b in zip(steered.steps, static.steps)
        )
        assert moved >= len(steered.steps) // 2


class TestSearchCount:
    @pytest.fixture
    def counters(self, monkeypatch):
        """Count route-search batches and steer calls that change weights."""
        counts = {"searches": 0, "engaged": 0, "idle": 0}
        lock = threading.Lock()
        search = CSGraphBackend.routes_from_many
        steer = SteeringController.steer

        def counting_search(backend, router, sources):
            with lock:
                counts["searches"] += 1
            return search(backend, router, sources)

        def counting_steer(controller, edge_list):
            steered = steer(controller, edge_list)
            with lock:
                counts["idle" if steered is edge_list else "engaged"] += 1
            return steered

        monkeypatch.setattr(CSGraphBackend, "routes_from_many", counting_search)
        monkeypatch.setattr(SteeringController, "steer", counting_steer)
        return counts

    @pytest.mark.parametrize("steered_first", [False, True])
    def test_idle_steps_add_no_search_engaged_steps_add_one(
        self, topology, epoch, counters, steered_first
    ):
        simulator = _simulator(topology, ENGAGED)
        open_loop = Scenario(name="faulted", allocator="proportional_array", faults=FAULTS)
        steered = Scenario(
            name="faulted_steered",
            allocator="proportional_array",
            faults=FAULTS,
            steering="congestion-aware",
        )
        _sweep(simulator, epoch, [open_loop], "csgraph", "serial")
        alone = counters["searches"]
        assert counters["engaged"] == counters["idle"] == 0
        counters["searches"] = 0
        pair = [steered, open_loop] if steered_first else [open_loop, steered]
        _sweep(simulator, epoch, pair, "csgraph", "serial")
        assert counters["engaged"] > 0 and counters["idle"] > 0
        assert counters["searches"] == alone + counters["engaged"]

    def test_thread_stress_shares_without_lost_or_repeated_searches(
        self, topology, epoch, counters
    ):
        """Many steered and open-loop scenarios of one group on more threads
        than cores, switching threads as often as possible: results and the
        search count must equal the serial sweep's (a race in the shared
        cache would repeat a search or serve a table of the wrong step)."""
        simulator = _simulator(topology, ENGAGED)
        scenarios = [
            Scenario(
                name=f"s{index}",
                allocator="proportional_array",
                faults=FAULTS,
                steering=None if index % 3 == 0 else "congestion-aware",
            )
            for index in range(9)
        ]
        serial = _sweep(simulator, epoch, scenarios, "csgraph", "serial")
        expected = dict(counters)
        counters.update(searches=0, engaged=0, idle=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulator.run_scenarios(
                scenarios,
                epoch,
                4.0,
                step_hours=0.25,
                backend="csgraph",
                flow_engine="columnar",
                executor="thread",
                max_workers=8,
            )
        finally:
            sys.setswitchinterval(interval)
        _assert_same(threaded, serial)
        assert counters == expected
        assert expected["engaged"] > 0 and expected["idle"] > 0

    def test_networkx_search_sharing(self, topology, epoch, monkeypatch):
        """With an open-loop consumer in the group, the graph backend shares
        too: every idle steered step reuses the open-loop tables."""
        simulator = _simulator(topology, IDLE)
        calls = []
        search = NetworkXBackend.routes_from

        def counting(backend, router, source):
            calls.append(source)
            return search(backend, router, source)

        monkeypatch.setattr(NetworkXBackend, "routes_from", counting)
        _sweep(
            simulator,
            epoch,
            [Scenario(name="faulted", faults=FAULTS)],
            "networkx",
            "serial",
            flow_engine="objects",
        )
        alone = len(calls)
        calls.clear()
        _sweep(
            simulator,
            epoch,
            [
                Scenario(name="faulted", faults=FAULTS),
                Scenario(
                    name="faulted_steered", faults=FAULTS, steering="congestion-aware"
                ),
            ],
            "networkx",
            "serial",
            flow_engine="objects",
        )
        assert len(calls) == alone
