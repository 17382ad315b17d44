"""Oracle test of the array max-min solver's single-pass rounds.

The production :func:`~repro.network.alloc_arrays._solve_max_min` carries
each round's link loads into the next round and keeps the per-link
active-flow counts as integers decremented by the flows each round freezes.
The earlier solver -- loads and float-weighted counts recomputed from scratch
every round -- is kept below as a test-only reference, and both must return
bit-identical ``(rates, utilisation)`` on random systems covering zero
demands, zero capacities, rounded ties, empty systems, an ``iterations`` cap
and both no-progress fallbacks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.network.alloc_arrays import FlowLinkSystem, _solve_max_min


def reference_max_min(system, iterations=None, fallbacks=None):
    """The recompute-everything waterfilling loop.

    ``fallbacks``, when a list, receives ``"link"`` / ``"flow"`` each time a
    round freezes its binding constraint directly, so tests can check that
    the no-progress paths were exercised.
    """
    demand, capacity = system.demand, system.capacity
    link_count = system.link_count
    rates = np.zeros(system.flow_count)
    frozen = demand == 0.0
    rounds = 0
    while iterations is None or rounds < iterations:
        rounds += 1
        active = ~frozen
        if not active.any():
            break
        remaining = np.where(active, demand - rates, np.inf)
        binding_flow = int(np.argmin(remaining))
        increment = float(remaining[binding_flow])
        binding_link = None
        if link_count:
            counts = np.bincount(
                system.link_ids,
                weights=active[system.flow_ids].astype(float),
                minlength=link_count,
            )
            load = system.link_loads(rates)
            live = counts > 0
            if live.any():
                shares = np.full(link_count, np.inf)
                shares[live] = (capacity[live] - load[live]) / counts[live]
                candidate = int(np.argmin(shares))
                if shares[candidate] < increment:
                    increment = float(shares[candidate])
                    binding_link = candidate
        if increment <= 1e-12:
            increment = 0.0
        rates[active] += increment
        newly = active & (rates >= demand - 1e-9)
        if link_count:
            saturated = system.link_loads(rates) >= capacity - 1e-9
            touching = (
                np.bincount(
                    system.flow_ids,
                    weights=saturated[system.link_ids].astype(float),
                    minlength=system.flow_count,
                )
                > 0
            )
            newly |= active & touching
        if newly.any():
            frozen |= newly
            continue
        if binding_link is not None:
            on_link = np.zeros(system.flow_count, dtype=bool)
            on_link[system.flow_ids[system.link_ids == binding_link]] = True
            frozen |= on_link
            if fallbacks is not None:
                fallbacks.append("link")
        else:
            frozen[binding_flow] = True
            if fallbacks is not None:
                fallbacks.append("flow")

    utilisation = np.zeros(link_count)
    if link_count:
        load = system.link_loads(rates)
        positive = capacity > 0.0
        utilisation[positive] = load[positive] / capacity[positive]
        utilisation[~positive & (system.link_loads(demand) > 0.0)] = 1.0
    return rates, utilisation


def random_system(rng, flows, links, scale=1.0, round_to=None):
    """A random incidence system; every flow crosses 0..4 distinct links."""
    demand = rng.uniform(0.0, 10.0, flows) * scale
    capacity = rng.uniform(0.0, 20.0, links) * scale
    if round_to is not None:
        demand = np.round(demand, round_to)
        capacity = np.round(capacity, round_to)
    demand[rng.random(flows) < 0.15] = 0.0
    capacity[rng.random(links) < 0.1] = 0.0
    flow_ids, link_ids = [], []
    for flow in range(flows):
        hops = int(rng.integers(0, min(4, links) + 1))
        for link in rng.choice(links, size=hops, replace=False).tolist():
            flow_ids.append(flow)
            link_ids.append(link)
    return FlowLinkSystem(
        flow_names=None,
        demand=demand,
        capacity=capacity,
        flow_ids=np.asarray(flow_ids, dtype=np.intp),
        link_ids=np.asarray(link_ids, dtype=np.intp),
        link_keys=None,
    )


def assert_bitwise(ours, reference):
    for got, expected in zip(ours, reference):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_matches_reference_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    for scale, round_to in ((1.0, None), (1.0, 0), (1e12, None), (1e-6, 7)):
        system = random_system(
            rng, int(rng.integers(1, 40)), int(rng.integers(1, 15)), scale, round_to
        )
        assert_bitwise(_solve_max_min(system), reference_max_min(system))


@pytest.mark.parametrize("iterations", [0, 1, 2, 3, 7])
def test_matches_reference_under_iteration_cap(iterations):
    rng = np.random.default_rng(100 + iterations)
    for _ in range(20):
        system = random_system(rng, 30, 10)
        assert_bitwise(
            _solve_max_min(system, iterations),
            reference_max_min(system, iterations),
        )


def test_matches_reference_on_empty_and_linkless_systems():
    empty = FlowLinkSystem(
        flow_names=None,
        demand=np.zeros(0),
        capacity=np.zeros(0),
        flow_ids=np.zeros(0, dtype=np.intp),
        link_ids=np.zeros(0, dtype=np.intp),
        link_keys=None,
    )
    assert_bitwise(_solve_max_min(empty), reference_max_min(empty))
    linkless = FlowLinkSystem(
        flow_names=None,
        demand=np.array([0.0, 2.5, 1.0]),
        capacity=np.zeros(0),
        flow_ids=np.zeros(0, dtype=np.intp),
        link_ids=np.zeros(0, dtype=np.intp),
        link_keys=None,
    )
    assert_bitwise(_solve_max_min(linkless), reference_max_min(linkless))
    zero_capacity = replace(
        random_system(np.random.default_rng(7), 12, 5), capacity=np.zeros(5)
    )
    assert_bitwise(_solve_max_min(zero_capacity), reference_max_min(zero_capacity))


def test_matches_reference_through_both_fallbacks():
    """Large magnitudes defeat the 1e-9 tolerances, so rounds end with no
    freeze and the binding link or binding flow is frozen directly."""
    rng = np.random.default_rng(2024)
    seen: list[str] = []
    for _ in range(60):
        system = random_system(rng, 25, 8, scale=1e12)
        fallbacks: list[str] = []
        reference = reference_max_min(system, fallbacks=fallbacks)
        seen.extend(fallbacks)
        assert_bitwise(_solve_max_min(system), reference)
    assert "link" in seen and "flow" in seen
