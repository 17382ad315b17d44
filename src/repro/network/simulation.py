"""Time-stepped network simulation and scenario sweeps.

The simulator is a pipeline of composable stages, executed once per time
step:

1. **snapshot provider** -- per-step graphs stream from a cached
   :class:`~repro.network.topology.SnapshotSequence` (one batched
   ``(T, N, 3)`` propagation plus one vectorised feasibility pass for the
   whole run, graphs updated incrementally between steps); array-native
   routing backends additionally receive the sequence's per-step CSR edge
   arrays;
2. **flow selection** -- the gravity traffic matrix of the step's UTC hour
   (memoised: the diurnal model repeats every 24 h, so a week-long run needs
   24 distinct matrices, not one rebuild per step) is filtered to the
   scenario's ground stations, scaled by its demand multiplier, and reduced
   to the largest ``flows_per_step`` flows;
3. **routing** -- all of the step's distinct source stations are solved in
   one batched backend call
   (:meth:`~repro.network.routing.SnapshotRouter.routes_from_many`); the
   default ``"networkx"`` backend runs one single-source Dijkstra per
   station, the ``"csgraph"`` backend fuses the whole batch into a single
   compiled multi-source search over the CSR arrays;
4. **capacity allocation** -- the scenario's allocator policy
   (:data:`repro.network.capacity.ALLOCATORS`) splits link bandwidth among
   the routed flows; under an array-native backend every allocator reads
   capacities from a view of the step's edge-list export (no
   :class:`networkx.Graph` is built at all), and the array-native policies
   (``"proportional_array"`` / ``"max_min_array"``,
   :mod:`repro.network.alloc_arrays`) additionally compile the routed
   index paths straight into a sparse (flow x link) incidence system and
   allocate in whole-array numpy;
5. **statistics** -- throughput, latency and reachability are folded into a
   :class:`StepStatistics`.

:meth:`NetworkSimulator.run` executes that pipeline for a single default
scenario.  The scenario-sweep entry point,
:meth:`NetworkSimulator.run_scenarios`, evaluates many :class:`Scenario`
variants (demand multipliers, ground-station subsets, flow budgets,
allocator policies, routing backends, fault-injection specs) over *one*
shared snapshot sequence: scenarios with the same station subset and fault
schedule literally share each per-step graph, so a sweep pays the topology
cost once instead of once per scenario.  This is the paper's Section 5
evaluation methodology -- many traffic scenarios over one constellation --
as a first-class API.

Fault scenarios (:mod:`repro.network.faults`) compile to per-step outage
masks exactly once per sweep, applied on top of the shared sequence's edge
tensors; the per-step statistics then carry the resilience quantities --
stranded demand, node up-fractions -- and :class:`SimulationResult` offers
availability, latency stretch and time-to-recover against a healthy
baseline run of the same sweep.

Sweeps parallelise two ways.  ``executor="thread"`` (the default) fans the
per-step scenario evaluations out to a thread pool sharing one snapshot
stream -- cheap, but GIL-bound.  ``executor="process"`` ships each worker
its slice of the scenarios plus the picklable per-step
:class:`~repro.network.backends.SnapshotEdgeList` arrays (a
:class:`networkx.Graph` would cost an order of magnitude more to serialise)
and evaluates them on real cores -- the scaling path for hundreds of
scenarios, best paired with the ``csgraph`` backend.  Finally,
:func:`run_grid` composes a constellation-design axis with the scenario
axis into a persisted cross-product sweep.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping as MappingType, NamedTuple

import numpy as np

from ..demand.traffic_matrix import GravityTrafficModel, TrafficMatrix
from ..obs import (
    NULL_TRACER,
    ProgressTracker,
    RunMetrics,
    Tracer,
    combined_stage_means,
)
from .alloc_arrays import ARRAY_SOLVERS, compile_system_from_rows
from ..orbits.time import Epoch, epoch_range
from .backends import RoutingBackend, SnapshotEdgeList, get_backend
from .capacity import AllocationResult, Flow, get_allocator
from .faults import FaultContext, FaultSchedule, FaultSpec, compile_faults, normalise_fault_specs
from .flows import FlowTable, route_flow_table, select_flow_table
from .ground_station import GroundStation
from .routing import SnapshotRouter
from .steering import (
    get_steering_policy,
    link_codes,
    path_delays,
    path_delays_from_rows,
)
from .telemetry import LinkTelemetry, PairTelemetry, get_telemetry
from .topology import ConstellationTopology, MultiShellTopology

__all__ = [
    "Scenario",
    "StepStatistics",
    "SimulationResult",
    "NetworkSimulator",
    "run_grid",
]


@dataclass(frozen=True)
class Scenario:
    """One traffic scenario of a sweep.

    Attributes
    ----------
    name:
        Unique key of the scenario within a sweep.
    demand_multiplier:
        Scales every traffic-matrix entry before flow selection.
    ground_station_names:
        Restrict traffic endpoints (and graph attachment) to this subset of
        the simulator's stations; ``None`` uses all of them.
    flows_per_step:
        Per-step flow budget; ``None`` uses the simulator's default.
    allocator:
        Capacity-allocation policy name, looked up in
        :data:`repro.network.capacity.ALLOCATORS`.
    backend:
        Routing-backend name, looked up in
        :data:`repro.network.backends.BACKENDS`; ``None`` uses the sweep's
        default backend.
    faults:
        Fault-injection specs applied to this scenario's snapshots, as a
        tuple of :class:`~repro.network.faults.FaultSpec` (also accepted: a
        single spec, a bare model name, a ``(name, params)`` pair, or an
        iterable of those -- normalised here).  ``None`` runs the healthy
        network.  Specs are validated against
        :data:`repro.network.faults.FAULT_MODELS` at construction, so a
        malformed fault scenario fails immediately instead of mid-sweep.
    flow_engine:
        Flow-pipeline implementation: ``"objects"`` runs the per-``Flow``
        reference stages, ``"columnar"`` the array-native engine of
        :mod:`repro.network.flows` (identical statistics, no per-flow
        Python -- the scaling path for large flow budgets).  ``None``
        defers to the sweep-level default of :meth:`NetworkSimulator.run_scenarios`.
    telemetry:
        Station-pair telemetry model name, looked up in
        :data:`repro.network.telemetry.TELEMETRY` (``"exact"``,
        ``"sketch"``, ``"auto"``); enables per-step top-pair summaries on
        :class:`StepStatistics` and a mergeable per-run aggregate on
        :class:`SimulationResult`.  ``None`` collects nothing.
    steering:
        Congestion-steering policy name, looked up in
        :data:`repro.network.steering.STEERING_POLICIES`; adaptive policies
        feed each step's per-link utilisation back into the next step's
        routing weights.  ``None`` defers to the sweep-level default of
        :meth:`NetworkSimulator.run_scenarios`; ``"static"`` pins the
        scenario to open-loop routing (bit-identical to no steering)
        regardless of the sweep default.
    """

    name: str
    demand_multiplier: float = 1.0
    ground_station_names: tuple[str, ...] | None = None
    flows_per_step: int | None = None
    allocator: str = "proportional"
    backend: str | None = None
    faults: "tuple[FaultSpec, ...] | None" = None
    flow_engine: str | None = None
    telemetry: str | None = None
    steering: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        # ``not (x > 0)`` also rejects NaN, which ``x <= 0`` lets through.
        if not self.demand_multiplier > 0:
            raise ValueError(
                f"demand_multiplier must be positive, got {self.demand_multiplier}"
            )
        if self.flows_per_step is not None and self.flows_per_step <= 0:
            raise ValueError("flows_per_step must be positive")
        if self.ground_station_names is not None:
            object.__setattr__(
                self, "ground_station_names", tuple(self.ground_station_names)
            )
        get_allocator(self.allocator)  # validate the policy name early
        if self.backend is not None:
            get_backend(self.backend)  # validate the backend name early
        if self.flow_engine is not None and self.flow_engine not in (
            "objects",
            "columnar",
        ):
            raise ValueError(
                f"flow_engine must be 'objects' or 'columnar', got {self.flow_engine!r}"
            )
        if self.telemetry is not None:
            get_telemetry(self.telemetry)  # validate the model name early
        if self.steering is not None:
            get_steering_policy(self.steering)  # validate the policy name early
        object.__setattr__(self, "faults", normalise_fault_specs(self.faults))


@dataclass(frozen=True)
class StepStatistics:
    """Network statistics of one simulation step.

    The resilience fields (``stranded_gbps`` and the up-fractions) default
    to their healthy-network values, so fault-free runs and pre-fault
    consumers are unaffected.
    """

    utc_hour: float
    offered_gbps: float
    delivered_gbps: float
    reachable_fraction: float
    mean_latency_ms: float
    worst_link_utilisation: float
    #: Offered demand [Gbps] that went unserved: flows that could not be
    #: routed at all (disconnected endpoints) plus routed flows whose
    #: allocation came back exactly zero (paths through zero-capacity
    #: links) -- the paper-relevant "stranded demand" under outages.
    stranded_gbps: float = 0.0
    #: Fraction of satellites up at this step (1.0 on the healthy network).
    satellites_up_fraction: float = 1.0
    #: Fraction of this scenario's ground stations up at this step.
    stations_up_fraction: float = 1.0
    #: Largest (source, destination, offered Gbps) station pairs of the step,
    #: from the scenario's telemetry model; empty when telemetry is off.
    top_pairs: tuple[tuple[str, str, float], ...] = ()
    #: Links whose steering engagement flipped when this step's utilisation
    #: feedback was folded in (0 without an adaptive steering policy).
    steering_reroutes: int = 0
    #: Highest EWMA-smoothed link utilisation after this step's update.
    steering_max_utilisation: float = 0.0
    #: Engagement flips suppressed by the steering anti-flap cooldown.
    steering_flaps: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Delivered over offered traffic (1.0 means everything was served)."""
        if self.offered_gbps == 0:
            return 1.0
        return self.delivered_gbps / self.offered_gbps


@dataclass
class SimulationResult:
    """Collected per-step statistics of one simulation run."""

    steps: list[StepStatistics] = field(default_factory=list)
    #: Whole-run station-pair telemetry aggregate (per-step collections
    #: merged in step order -- including across process workers), present
    #: only when the scenario enabled a telemetry model.
    telemetry: PairTelemetry | None = None
    #: Whole-run per-link utilisation aggregate (per-step utilisation summed
    #: across steps -- "sustained heat"), sharing the steering feedback's
    #: signal; present only when the scenario enabled a telemetry model
    #: *and* the pipeline had the edge-list utilisation export available
    #: (array-native backend or adaptive steering).
    link_telemetry: LinkTelemetry | None = None
    #: Per-stage durations, call counts, counters and memory gauges of this
    #: scenario's run (:mod:`repro.obs`), present only when the sweep ran
    #: with ``instrument=True``.  Shared per-step snapshot work is
    #: amortised equally across the scenarios it serves, so summing a
    #: sweep's per-scenario metrics conserves the total measured time;
    #: worker-process metrics merge into this elementwise, like telemetry.
    metrics: RunMetrics | None = None

    def sustained_hot_links(
        self, count: int = 5
    ) -> tuple[tuple[object, object, float], ...]:
        """Largest ``count`` (node_a, node_b, summed utilisation) links.

        The run-level congestion ranking: per-step utilisation summed over
        every step, so a link at 0.9 for the whole run outranks one that
        spiked to 1.0 once.  Empty without link telemetry.
        """
        if self.link_telemetry is None:
            return ()
        return self.link_telemetry.top_links(count)

    def _require_steps(self) -> None:
        if not self.steps:
            raise ValueError("simulation produced no steps")

    def mean_delivery_ratio(self) -> float:
        """Return the average delivery ratio over all steps."""
        self._require_steps()
        return float(np.mean([step.delivery_ratio for step in self.steps]))

    def mean_latency_ms(self) -> float:
        """Return the average of per-step mean latencies (reachable pairs only)."""
        values = [step.mean_latency_ms for step in self.steps if np.isfinite(step.mean_latency_ms)]
        if not values:
            return float("nan")
        return float(np.mean(values))

    def worst_step(self) -> StepStatistics:
        """Return the step with the lowest delivery ratio."""
        self._require_steps()
        return min(self.steps, key=lambda step: step.delivery_ratio)

    # -- resilience metrics ------------------------------------------------------

    def availability(self, threshold: float = 0.99) -> float:
        """Fraction of steps whose delivery ratio meets ``threshold``.

        The service-availability metric of a fault sweep: how much of the
        run the network delivered (at least) the required fraction of the
        offered demand.
        """
        self._require_steps()
        return float(
            np.mean([step.delivery_ratio >= threshold for step in self.steps])
        )

    def mean_stranded_gbps(self) -> float:
        """Average demand per step that could not be routed at all."""
        self._require_steps()
        return float(np.mean([step.stranded_gbps for step in self.steps]))

    def latency_stretch(self, baseline: "SimulationResult") -> float:
        """Mean per-step latency ratio against a healthy baseline run.

        Steps where either run has no reachable pair are skipped; with no
        comparable step at all the stretch is NaN.  Values above 1 mean the
        surviving traffic takes longer detours around the outages.
        """
        if len(baseline.steps) != len(self.steps):
            raise ValueError(
                "baseline must cover the same steps as this result "
                f"({len(baseline.steps)} != {len(self.steps)})"
            )
        ratios = [
            step.mean_latency_ms / reference.mean_latency_ms
            for step, reference in zip(self.steps, baseline.steps)
            if np.isfinite(step.mean_latency_ms)
            and np.isfinite(reference.mean_latency_ms)
            and reference.mean_latency_ms > 0
        ]
        if not ratios:
            return float("nan")
        return float(np.mean(ratios))

    def time_to_recover_steps(
        self, baseline: "SimulationResult", tolerance: float = 0.02
    ) -> int:
        """Longest stretch of steps degraded below the healthy baseline.

        A step counts as degraded when its delivery ratio falls more than
        ``tolerance`` below the baseline's ratio at the same step; the
        longest contiguous degraded run is the worst-case time to recover,
        in steps (0 when the run never degrades).
        """
        if len(baseline.steps) != len(self.steps):
            raise ValueError(
                "baseline must cover the same steps as this result "
                f"({len(baseline.steps)} != {len(self.steps)})"
            )
        worst = current = 0
        for step, reference in zip(self.steps, baseline.steps):
            if reference.delivery_ratio - step.delivery_ratio > tolerance:
                current += 1
                worst = max(worst, current)
            else:
                current = 0
        return worst


class _SharedRouteCache:
    """Per-snapshot cache of single-source routing tables.

    Scenarios evaluated on the same snapshot share one instance, so a sweep
    pays each source's shortest-path search once per step however many
    scenarios (or worker threads) consume it.  The lock makes the
    check-then-compute atomic under ``max_workers`` threading: concurrent
    scenarios of one group wait for the first computation instead of
    redundantly repeating it.

    The cache is only valid for one snapshot, and a sweep owner must call
    :meth:`reset` when its stream advances to the next step.  (Earlier
    engine revisions allocated a fresh cache per step instead; making the
    per-step lifetime an explicit reset keeps one object per scenario group
    for a whole sweep and guarantees a week-long run never accumulates
    every step's route tables.)
    """

    def __init__(self):
        self._routes: dict = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Drop every cached table; call when the snapshot advances."""
        with self._lock:
            self._routes = {}

    def routes_from_many(self, router: SnapshotRouter, sources: list) -> dict:
        """Return ``{source: routing table}``, computing the missing sources.

        All sources absent from the cache are solved in one batched
        :meth:`~repro.network.routing.SnapshotRouter.routes_from_many` call,
        so array-native backends pay a single multi-source search per step
        however the consuming scenarios overlap.
        """
        missing = [source for source in sources if source not in self._routes]
        if missing:
            with self._lock:
                missing = [s for s in dict.fromkeys(missing) if s not in self._routes]
                if missing:
                    self._routes.update(router.routes_from_many(missing))
        return {source: self._routes[source] for source in sources}


class _TrafficMatrixCache:
    """Memoise ``matrix_at`` by UTC hour.

    The diurnal model repeats every 24 hours, so a multi-day simulation
    revisits the same hours; each distinct hour's O(cities^2) gravity matrix
    is built once.  Keys are rounded to nanosecond-of-hour precision so
    float-modulo jitter between nominally equal hours still hits the cache.
    """

    def __init__(self, model: GravityTrafficModel):
        self._model = model
        self._matrices: dict[float, TrafficMatrix] = {}

    def matrix_at(self, utc_hour: float) -> TrafficMatrix:
        key = round(utc_hour % 24.0, 9)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = self._model.matrix_at(utc_hour)
            self._matrices[key] = matrix
        return matrix


class _EdgePairView:
    """``graph.edges[a, b]`` lookups over a capacity view's attribute dict."""

    def __init__(self, view: "_EdgeListCapacityView"):
        self._view = view

    def __getitem__(self, key):
        a, b = key
        attributes = self._view._attrs()
        try:
            return attributes[(a, b)]
        except KeyError:
            return attributes[(b, a)]


class _EdgeListCapacityView:
    """Duck-types the slice of :class:`networkx.Graph` the allocators touch.

    Capacity allocation only ever calls ``graph.has_edge(a, b)`` and reads
    ``graph.edges[a, b]["capacity_gbps"]``, so worker processes allocate
    straight over the shipped :class:`SnapshotEdgeList` arrays instead of
    materialising a graph -- producing bit-identical allocations.

    The view also exposes the underlying edge list as ``edge_list``: the
    array-native allocators (:mod:`repro.network.alloc_arrays`) compile
    straight from its endpoint/capacity arrays, so the label-keyed
    attribute dict is built lazily, on the first lookup by a dict
    allocator, and array-allocator scenarios never pay the per-edge python
    pass at all.
    """

    def __init__(self, edge_list: SnapshotEdgeList):
        self.edge_list = edge_list
        self._attributes: dict | None = None
        self.edges = _EdgePairView(self)

    def _attrs(self) -> dict:
        if self._attributes is None:
            labels = self.edge_list.labels
            attributes: dict = {}
            for a, b, capacity in zip(
                self.edge_list.a.tolist(),
                self.edge_list.b.tolist(),
                self.edge_list.capacity_gbps.tolist(),
            ):
                attributes[(labels[a], labels[b])] = {"capacity_gbps": capacity}
            self._attributes = attributes
        return self._attributes

    def has_edge(self, a, b) -> bool:
        attributes = self._attrs()
        return (a, b) in attributes or (b, a) in attributes


class _RoutedFlows(NamedTuple):
    """Stage-3 output of the object engine, with array-derived totals."""

    flows: list[Flow]
    latencies: list[float]
    #: Total demand of every candidate [Gbps] (numpy reduction).
    offered: float
    #: Total demand of the candidates that found a route [Gbps].
    routed: float
    #: Per-routed-flow demand [Gbps], in ``flows`` order.
    demands: np.ndarray


@dataclass(frozen=True)
class _WorkerScenario:
    """One scenario's fully resolved evaluation spec, shipped to a worker.

    ``group_index`` identifies the scenario's (station subset, fault
    schedule) snapshot group: fault masks are compiled by the driver and
    pre-applied to the shipped edge lists, so workers never run fault code
    -- they only carry the per-step up-fractions for the statistics.
    """

    scenario: Scenario
    station_names: tuple[str, ...]
    flows_per_step: int
    backend: str
    group_index: int
    satellites_up: tuple[float, ...] | None = None
    stations_up: tuple[float, ...] | None = None
    flow_engine: str = "objects"
    #: Resolved *adaptive* steering policy name (``None`` means open loop:
    #: static and absent policies are normalised away by the driver).
    steering: str | None = None
    #: Whether the worker records per-stage spans and metrics for this
    #: scenario (tracers are built worker-side -- they hold a lock and are
    #: deliberately never shipped).
    instrument: bool = False


def _sweep_process_worker(
    specs: list[_WorkerScenario],
    edge_lists: dict[int, list[SnapshotEdgeList]],
    utc_hours: list[float],
    traffic_model: GravityTrafficModel,
) -> "dict[str, tuple[list[StepStatistics], PairTelemetry | None, LinkTelemetry | None, RunMetrics | None]]":
    """Evaluate a slice of a sweep's scenarios over shipped edge arrays.

    Module-level so it pickles under every multiprocessing start method.
    Each worker rebuilds only what its backends need per step -- CSR arrays
    for ``csgraph``, a routing graph for ``networkx`` -- and allocates over
    the capacity view, so results are identical to the in-process path.
    ``edge_lists`` is keyed by snapshot group (station subset plus fault
    schedule); masked groups ship already-degraded arrays.  Per-step
    telemetry is merged worker-side in step order (stores are plain numpy
    state, so the merged aggregate pickles back cheaply).  Adaptive
    steering controllers are created here and replay every step in order,
    so feedback state -- and therefore results -- are bit-identical to the
    serial path; like there, a steered scenario whose step leaves the
    weights untouched routes on its group's shared router and route cache.
    Instrumented specs get a worker-local tracer whose
    :class:`RunMetrics` travel back with the results (durations are
    worker-local; counters, call counts and size gauges are deterministic,
    so they merge to exactly the serial values).
    """
    matrix_cache = _TrafficMatrixCache(traffic_model)
    steps: dict[str, list[StepStatistics]] = {
        spec.scenario.name: [] for spec in specs
    }
    aggregates: "dict[str, PairTelemetry | None]" = {
        spec.scenario.name: None for spec in specs
    }
    link_aggregates: "dict[str, LinkTelemetry | None]" = {
        spec.scenario.name: None for spec in specs
    }
    controllers = {
        spec.scenario.name: get_steering_policy(spec.steering).controller()
        for spec in specs
        if spec.steering is not None
    }
    tracers = {
        spec.scenario.name: Tracer() for spec in specs if spec.instrument
    }
    # Every (group, backend) gets a shared router and route cache, steered
    # consumers included: a steered step routes on them whenever steering
    # is idle.  The exception is a graph backend whose only consumers steer:
    # a shared router would build the very graph their private path builds,
    # so they keep routing privately.
    shared_keys = {
        (spec.group_index, spec.backend)
        for spec in specs
        if spec.steering is None or get_backend(spec.backend).uses_arrays
    }
    for step, utc_hour in enumerate(utc_hours):
        matrix = matrix_cache.matrix_at(utc_hour)
        routers: dict = {}
        caches: dict = {}
        views: dict = {}
        for spec in specs:
            name = spec.scenario.name
            controller = controllers.get(name)
            tracer = tracers.get(name, NULL_TRACER)
            key = (spec.group_index, spec.backend)
            # The first spec of a (group, backend) pays -- and records -- the
            # snapshot build.
            with tracer.span("snapshot"):
                if key in shared_keys and key not in routers:
                    edges = edge_lists[spec.group_index][step]
                    backend = get_backend(spec.backend)
                    if backend.uses_arrays:
                        routers[key] = SnapshotRouter(
                            backend=backend, arrays=edges.arrays()
                        )
                    else:
                        routers[key] = SnapshotRouter(edges.graph(), backend=backend)
                    caches[key] = _SharedRouteCache()
                if spec.group_index not in views:
                    views[spec.group_index] = _EdgeListCapacityView(
                        edge_lists[spec.group_index][step]
                    )
            if tracer.enabled:
                tracer.gauge(
                    "edge_list_bytes", edge_lists[spec.group_index][step].nbytes
                )
            stats, step_telemetry, step_links = NetworkSimulator._evaluate_scenario_step(
                routers.get(key),
                views[spec.group_index],
                matrix,
                spec.scenario,
                spec.station_names,
                spec.flows_per_step,
                utc_hour,
                route_cache=caches.get(key),
                satellites_up_fraction=(
                    spec.satellites_up[step] if spec.satellites_up else 1.0
                ),
                stations_up_fraction=(
                    spec.stations_up[step] if spec.stations_up else 1.0
                ),
                flow_engine=spec.flow_engine,
                steering_controller=controller,
                backend=get_backend(spec.backend),
                tracer=tracer,
            )
            steps[name].append(stats)
            if step_telemetry is not None:
                if aggregates[name] is None:
                    aggregates[name] = step_telemetry
                else:
                    aggregates[name].merge(step_telemetry)
            if step_links is not None:
                if link_aggregates[name] is None:
                    link_aggregates[name] = step_links
                else:
                    link_aggregates[name].merge(step_links)
    return {
        name: (
            steps[name],
            aggregates[name],
            link_aggregates[name],
            tracers[name].metrics if name in tracers else None,
        )
        for name in steps
    }


@dataclass
class NetworkSimulator:
    """Time-stepped simulator of a constellation serving gravity traffic.

    Attributes
    ----------
    topology:
        Constellation to simulate (a single shell or a
        :class:`~repro.network.topology.MultiShellTopology`).
    ground_stations:
        Traffic endpoints (must correspond to cities of the traffic model).
    traffic_model:
        Gravity traffic generator; its city list is filtered to the ground
        stations present.
    flows_per_step:
        The simulator routes only the largest ``flows_per_step`` flows of each
        traffic matrix to keep step cost bounded (scenarios may override).
    """

    topology: ConstellationTopology | MultiShellTopology
    ground_stations: list[GroundStation]
    traffic_model: GravityTrafficModel = field(default_factory=GravityTrafficModel)
    flows_per_step: int = 50

    # -- public entry points -----------------------------------------------------

    def run(
        self,
        start: Epoch,
        duration_hours: float,
        step_hours: float = 1.0,
        allocator: str = "proportional",
        backend: "str | RoutingBackend" = "networkx",
        flow_engine: str = "objects",
        steering: str | None = None,
        instrument: bool = False,
    ) -> SimulationResult:
        """Run a single default scenario and return per-step statistics.

        Equivalent to a one-element :meth:`run_scenarios` sweep; kept as the
        simple entry point.  ``instrument=True`` attaches per-stage
        :class:`~repro.obs.RunMetrics` to the result (see
        :mod:`repro.obs`); the default leaves the pipeline untraced.
        """
        scenario = Scenario(name="run", allocator=allocator)
        return self.run_scenarios(
            [scenario],
            start,
            duration_hours,
            step_hours,
            backend=backend,
            flow_engine=flow_engine,
            steering=steering,
            instrument=instrument,
        )["run"]

    def run_scenarios(
        self,
        scenarios: list[Scenario],
        start: Epoch,
        duration_hours: float,
        step_hours: float = 1.0,
        max_workers: int | None = None,
        backend: "str | RoutingBackend" = "networkx",
        executor: str = "thread",
        flow_engine: str = "objects",
        steering: str | None = None,
        instrument: bool = False,
        progress=None,
    ) -> dict[str, SimulationResult]:
        """Run every scenario over one shared snapshot sequence.

        All scenarios see the same constellation kinematics: one batched
        propagation and one vectorised link-feasibility pass cover the whole
        sweep, and scenarios whose ground-station subsets *and* fault specs
        coincide share each incrementally updated per-step graph outright --
        including its routing stage: shortest paths depend only on the
        snapshot, so one batched search per snapshot group per step serves
        every scenario of the group, whatever its demand multiplier, flow
        budget or allocator.  Fault specs (:attr:`Scenario.faults`) compile
        once per distinct spec tuple into vectorised outage masks applied on
        top of the shared edge tensors.  Results are keyed by scenario name,
        in input order, and are identical to running each scenario through
        an equivalently configured independent simulator.

        ``backend`` selects the sweep's default routing backend by registry
        name (:data:`repro.network.backends.BACKENDS`) or instance;
        individual scenarios may override it via :attr:`Scenario.backend`.
        The ``"csgraph"`` backend routes on the sequence's CSR edge arrays
        with one compiled multi-source Dijkstra per station group per step.

        ``max_workers`` optionally fans the scenario evaluations out to a
        pool.  With ``executor="thread"`` (the default) workers share the
        in-process snapshot stream; with ``executor="process"`` each worker
        process receives its slice of the scenarios plus the picklable
        per-step edge arrays and evaluates them on a separate core -- real
        multi-core scaling for large sweeps.  Results are deterministic
        under every executor.

        ``flow_engine`` selects the sweep's default flow pipeline
        (``"objects"`` or ``"columnar"``, see :attr:`Scenario.flow_engine`
        for the per-scenario override); both engines produce identical
        statistics, the columnar one without per-flow Python.

        ``steering`` selects the sweep's default congestion-steering policy
        by registry name (:data:`repro.network.steering.STEERING_POLICIES`;
        per-scenario override via :attr:`Scenario.steering`).  Adaptive
        policies close the control loop: each scenario carries one
        :class:`~repro.network.steering.SteeringController` across the run,
        the allocation stage exports per-link utilisation, and the next
        step routes on feedback-steered weights.  A step whose steering
        leaves every weight untouched routes on its snapshot group's shared
        route tables, so an idle controller costs no extra search.
        Reported latencies are always true (unsteered) path delays, and
        ``"static"`` / ``None`` bypass the controller machinery entirely, so
        open-loop results are bit-identical to pre-steering builds.

        ``instrument=True`` traces the sweep with :mod:`repro.obs`: every
        result carries a :attr:`SimulationResult.metrics` with per-stage
        durations, call counts, deterministic flow counters and working-set
        gauges.  Spans only ever read the monotonic clock around stages --
        they never touch pipeline values -- so instrumented statistics are
        bit-identical to untraced runs, and the default (off) path keeps
        the shared :data:`~repro.obs.NULL_TRACER` whose spans are free.

        ``progress`` optionally observes sweep completion: pass a callable
        receiving :class:`~repro.obs.ProgressEvent` (e.g.
        :class:`~repro.obs.StderrProgress` for a rate-limited stderr line)
        or a preconfigured :class:`~repro.obs.ProgressTracker` (as
        :func:`run_grid` does, to aggregate one ETA across many sweeps).
        Progress is counted in *cells* -- one scenario-step evaluation --
        with EWMA-smoothed throughput and ETA.
        """
        if duration_hours <= 0 or step_hours <= 0:
            raise ValueError("duration_hours and step_hours must be positive")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if flow_engine not in ("objects", "columnar"):
            raise ValueError(
                f"flow_engine must be 'objects' or 'columnar', got {flow_engine!r}"
            )
        if steering is not None:
            get_steering_policy(steering)  # validate the sweep default early
        scenarios = list(scenarios)
        if not scenarios:
            raise ValueError("at least one scenario is required")
        names = [scenario.name for scenario in scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")

        default_backend = get_backend(backend)
        effective_backends = {
            scenario.name: (
                get_backend(scenario.backend)
                if scenario.backend is not None
                else default_backend
            )
            for scenario in scenarios
        }
        # Resolve each scenario's steering policy once; non-adaptive
        # policies ("static", the open-loop identity) normalise to None so
        # every open-loop scenario takes the pre-steering fast path verbatim.
        steering_of = {}
        for scenario in scenarios:
            policy_name = (
                scenario.steering if scenario.steering is not None else steering
            )
            policy = (
                get_steering_policy(policy_name) if policy_name is not None else None
            )
            steering_of[scenario.name] = (
                policy if policy is not None and policy.adaptive else None
            )
        station_subsets = {
            scenario.name: self._station_subset(scenario) for scenario in scenarios
        }
        union_names = set().union(*station_subsets.values()) if scenarios else set()
        union_stations = [
            station for station in self.ground_stations if station.name in union_names
        ]

        epochs = epoch_range(start, duration_hours * 3600.0, step_hours * 3600.0)
        sequence = self.topology.snapshot_sequence(epochs, union_stations)
        utc_hours = [
            (start.fraction_of_day() * 24.0 + index * step_hours) % 24.0
            for index in range(len(epochs))
        ]

        # Observation plumbing: tracers exist only when asked for (progress
        # needs per-stage means, so it implies tracing too); otherwise every
        # stage sees the shared NULL_TRACER and pays nothing.
        if progress is None:
            tracker = None
        elif isinstance(progress, ProgressTracker):
            tracker = progress
        else:
            tracker = ProgressTracker(
                total=len(scenarios) * len(epochs), callback=progress
            )
        observe = bool(instrument) or tracker is not None
        tracers = {name: Tracer() for name in names} if observe else {}

        # Fault schedules are compiled exactly once per distinct (station
        # subset, spec tuple) -- by the driver, never by a worker -- so every
        # executor and both backends apply bit-identical masks.  Compiling
        # against the scenario's *own* subset (not the sweep union) keeps
        # every result identical to an independent simulator's: adding an
        # unrelated scenario to a sweep can never shift another scenario's
        # station-outage windows or random draws.  The expensive derived
        # caches (position stack, group keys) are shared across subsets.
        base_context = FaultContext(self.topology, epochs)
        fault_contexts: dict[tuple[str, ...], FaultContext] = {}
        schedules: dict[tuple, FaultSchedule | None] = {}
        for scenario in scenarios:
            subset = station_subsets[scenario.name]
            key = (subset, scenario.faults)
            if key in schedules:
                continue
            if scenario.faults is None:
                schedules[key] = None
                continue
            context = fault_contexts.get(subset)
            if context is None:
                context = base_context.with_stations(subset)
                fault_contexts[subset] = context
            schedules[key] = compile_faults(scenario.faults, context)

        if executor == "process" and max_workers is not None and max_workers > 1:
            return self._run_scenarios_processes(
                scenarios,
                station_subsets,
                effective_backends,
                schedules,
                sequence,
                utc_hours,
                max_workers,
                flow_engine,
                steering_of,
                instrument=bool(instrument),
                tracker=tracker,
            )

        matrix_cache = _TrafficMatrixCache(self.traffic_model)

        # Scenarios with the same (station subset, fault schedule) form one
        # snapshot group and share its per-step exports outright.
        groups = {
            scenario.name: (
                frozenset(station_subsets[scenario.name]),
                scenario.faults,
            )
            for scenario in scenarios
        }
        group_subsets: dict[tuple, tuple[str, ...]] = {}
        for scenario in scenarios:
            group_subsets.setdefault(
                groups[scenario.name], station_subsets[scenario.name]
            )
        # Incremental graph streams only for groups with at least one
        # python-backend router.  Array-backend scenarios route on the CSR
        # export and allocate over a capacity view of the same edge list
        # (bit-identical to graph allocation -- the process workers have
        # always done exactly this), so groups whose every scenario routes
        # array-natively skip per-step nx.Graph maintenance entirely.
        # Adaptive-steering scenarios never need the graph stream: they
        # allocate over the edge-list export, and a graph-backend group with
        # no open-loop consumer has no shared router (see below).
        streams = {
            group: sequence.graphs(
                copy=False,
                station_names=group_subsets[group],
                faults=schedules[(group_subsets[group], group[1])],
            )
            for group in {
                groups[scenario.name]
                for scenario in scenarios
                if not effective_backends[scenario.name].uses_arrays
                and steering_of[scenario.name] is None
            }
        }
        # Snapshot groups whose scenarios route on an array-native backend
        # -- or steer adaptively, which needs the edge list for the feedback
        # loop -- get the per-step edge-list export (masked the same way),
        # serving the CSR routing view and the allocation capacity view.
        arrays_needed = {
            groups[scenario.name]
            for scenario in scenarios
            if effective_backends[scenario.name].uses_arrays
            or steering_of[scenario.name] is not None
        }
        # One route cache per (snapshot group, backend) for the whole sweep,
        # reset at every step: route tables never outlive their snapshot --
        # and fault-perturbed groups never share tables with healthy ones.
        # Adaptive scenarios share their key's cache on every step whose
        # steering leaves the weights untouched; only a step that steers
        # routes privately (see :meth:`_evaluate_scenario_step`).
        router_keys = {
            scenario.name: (
                frozenset(station_subsets[scenario.name]),
                scenario.faults,
                effective_backends[scenario.name].name,
            )
            for scenario in scenarios
        }
        route_caches = {key: _SharedRouteCache() for key in set(router_keys.values())}
        # One controller per adaptive scenario for the whole run: steering
        # state is the control loop's cross-step memory.  Thread-safe as
        # used: each step issues exactly one task per scenario and steps are
        # sequential, so a controller is never driven concurrently.
        controllers = {
            name: policy.controller()
            for name, policy in steering_of.items()
            if policy is not None
        }

        results = {name: SimulationResult() for name in names}
        pool = (
            ThreadPoolExecutor(max_workers=max_workers)
            if max_workers is not None and max_workers > 1
            else None
        )
        try:
            for index in range(len(epochs)):
                utc_hour = utc_hours[index]
                matrix = matrix_cache.matrix_at(utc_hour)
                snapshot_begin = time.perf_counter() if observe else 0.0
                step_graphs = {
                    group: next(stream) for group, stream in streams.items()
                }
                step_lists = {
                    group: sequence.edge_list(
                        index,
                        group_subsets[group],
                        faults=schedules[(group_subsets[group], group[1])],
                    )
                    for group in arrays_needed
                }
                step_arrays = {
                    group: step_lists[group].arrays() for group in arrays_needed
                }
                step_views = {
                    group: _EdgeListCapacityView(edge_list)
                    for group, edge_list in step_lists.items()
                }
                routers: dict = {}
                for scenario in scenarios:
                    # Every (group, backend) routes through one shared router,
                    # steered consumers included.  A graph backend needs the
                    # group's graph stream, which exists only with an
                    # open-loop consumer; without one, steered scenarios
                    # keep routing privately on the edge list's own graph.
                    key = router_keys[scenario.name]
                    group = key[:2]
                    backend_of = effective_backends[scenario.name]
                    if key not in routers and (
                        backend_of.uses_arrays or group in step_graphs
                    ):
                        routers[key] = SnapshotRouter(
                            step_graphs.get(group),
                            backend=backend_of,
                            arrays=step_arrays.get(group),
                        )
                for cache in route_caches.values():
                    cache.reset()
                if observe:
                    # The snapshot stage (graph advance, edge-list export,
                    # CSR conversion, shared router builds) is driver work
                    # serving the whole sweep at once; amortise it equally
                    # so per-scenario metrics sum to the measured total.
                    share = (time.perf_counter() - snapshot_begin) / len(scenarios)
                    for scenario in scenarios:
                        tracer = tracers[scenario.name]
                        tracer.record_seconds("snapshot", share)
                        group = groups[scenario.name]
                        if group in step_lists:
                            tracer.gauge(
                                "edge_list_bytes", step_lists[group].nbytes
                            )

                def _evaluate(
                    scenario: Scenario,
                ) -> "tuple[StepStatistics, PairTelemetry | None, LinkTelemetry | None]":
                    key = router_keys[scenario.name]
                    group = key[:2]
                    controller = controllers.get(scenario.name)
                    schedule = schedules[
                        (station_subsets[scenario.name], scenario.faults)
                    ]
                    return self._simulate_step(
                        routers.get(key),
                        step_views[group]
                        if effective_backends[scenario.name].uses_arrays
                        or controller is not None
                        else step_graphs[group],
                        matrix,
                        scenario,
                        station_subsets[scenario.name],
                        utc_hour,
                        route_cache=route_caches[key],
                        satellites_up_fraction=(
                            schedule.satellites_up_fraction(index)
                            if schedule is not None
                            else 1.0
                        ),
                        stations_up_fraction=(
                            schedule.stations_up_fraction(
                                index, station_subsets[scenario.name]
                            )
                            if schedule is not None
                            else 1.0
                        ),
                        flow_engine=flow_engine,
                        steering_controller=controller,
                        backend=effective_backends[scenario.name],
                        tracer=tracers.get(scenario.name),
                    )

                if pool is not None:
                    step_stats = list(pool.map(_evaluate, scenarios))
                else:
                    step_stats = [_evaluate(scenario) for scenario in scenarios]
                for scenario, (stats, step_telemetry, step_links) in zip(
                    scenarios, step_stats
                ):
                    result = results[scenario.name]
                    result.steps.append(stats)
                    if step_telemetry is not None:
                        if result.telemetry is None:
                            result.telemetry = step_telemetry
                        else:
                            result.telemetry.merge(step_telemetry)
                    if step_links is not None:
                        if result.link_telemetry is None:
                            result.link_telemetry = step_links
                        else:
                            result.link_telemetry.merge(step_links)
                if tracker is not None:
                    tracker.advance(
                        len(scenarios),
                        stage_means=combined_stage_means(
                            [tracer.metrics for tracer in tracers.values()]
                        ),
                    )
        finally:
            if pool is not None:
                pool.shutdown()
        if instrument:
            for name in names:
                results[name].metrics = tracers[name].metrics
        return results

    def _run_scenarios_processes(
        self,
        scenarios: list[Scenario],
        station_subsets: dict[str, tuple[str, ...]],
        effective_backends: dict[str, RoutingBackend],
        schedules: dict,
        sequence,
        utc_hours: list[float],
        max_workers: int,
        flow_engine: str = "objects",
        steering_of: "dict | None" = None,
        instrument: bool = False,
        tracker: "ProgressTracker | None" = None,
    ) -> dict[str, SimulationResult]:
        """Fan a sweep out to worker processes over picklable edge arrays.

        Fault masks are applied to the edge lists *before* shipping, so a
        worker evaluating a faulted scenario receives the identical degraded
        arrays the serial path routes on -- fault sweeps are bit-identical
        across executors by construction.  Tracers are never shipped (they
        hold a lock): workers build their own and return plain picklable
        :class:`~repro.obs.RunMetrics`.  Progress is necessarily coarser
        than the in-process path -- a worker reports only when its whole
        chunk completes -- but the cell totals and stage means still add up.
        """
        # Workers resolve backends from the registry by name; an unregistered
        # instance would be silently swapped for (or fail to resolve to) a
        # registered one, so reject it here rather than mid-sweep.
        for scenario in scenarios:
            backend = effective_backends[scenario.name]
            try:
                registered = get_backend(backend.name)
            except ValueError:
                registered = None
            if registered is not backend:
                raise ValueError(
                    f"backend {type(backend).__name__!r} (name={backend.name!r}) "
                    "is not registered in repro.network.backends.BACKENDS; "
                    "register it or use executor='thread' for instance-based "
                    "backends"
                )
        steps = len(utc_hours)
        if steering_of is None:
            steering_of = {scenario.name: None for scenario in scenarios}
        group_indices: dict[tuple, int] = {}
        payloads: dict[int, list[SnapshotEdgeList]] = {}
        specs = []
        for scenario in scenarios:
            subset = station_subsets[scenario.name]
            group = (subset, scenario.faults)
            if group not in group_indices:
                group_indices[group] = len(group_indices)
                payloads[group_indices[group]] = sequence.edge_lists(
                    subset, faults=schedules[group]
                )
            schedule = schedules[group]
            specs.append(
                _WorkerScenario(
                    scenario=scenario,
                    station_names=subset,
                    flows_per_step=(
                        scenario.flows_per_step
                        if scenario.flows_per_step is not None
                        else self.flows_per_step
                    ),
                    backend=effective_backends[scenario.name].name,
                    group_index=group_indices[group],
                    satellites_up=(
                        tuple(
                            schedule.satellites_up_fraction(step)
                            for step in range(steps)
                        )
                        if schedule is not None
                        else None
                    ),
                    stations_up=(
                        tuple(
                            schedule.stations_up_fraction(step, subset)
                            for step in range(steps)
                        )
                        if schedule is not None
                        else None
                    ),
                    flow_engine=flow_engine,
                    steering=(
                        steering_of[scenario.name].name
                        if steering_of[scenario.name] is not None
                        else None
                    ),
                    instrument=instrument or tracker is not None,
                )
            )
        chunks = [chunk for chunk in (specs[i::max_workers] for i in range(max_workers)) if chunk]
        merged: "dict[str, tuple[list[StepStatistics], PairTelemetry | None, LinkTelemetry | None, RunMetrics | None]]" = {}
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = {
                pool.submit(
                    _sweep_process_worker,
                    chunk,
                    {
                        index: payloads[index]
                        for index in {spec.group_index for spec in chunk}
                    },
                    utc_hours,
                    self.traffic_model,
                ): chunk
                for chunk in chunks
            }
            if tracker is None:
                for future in futures:
                    merged.update(future.result())
            else:
                # Advance as chunks land: each completed future accounts for
                # its chunk's scenarios over every step of the sweep.
                for future in as_completed(futures):
                    part = future.result()
                    merged.update(part)
                    tracker.advance(
                        len(futures[future]) * steps,
                        stage_means=combined_stage_means(
                            [item[3] for item in merged.values() if item[3] is not None]
                        ),
                    )
        return {
            scenario.name: SimulationResult(
                steps=merged[scenario.name][0],
                telemetry=merged[scenario.name][1],
                link_telemetry=merged[scenario.name][2],
                metrics=merged[scenario.name][3] if instrument else None,
            )
            for scenario in scenarios
        }

    # -- pipeline stages ---------------------------------------------------------

    def _station_subset(self, scenario: Scenario) -> tuple[str, ...]:
        """Resolve a scenario's effective station names, in simulator order."""
        available = [station.name for station in self.ground_stations]
        if scenario.ground_station_names is None:
            return tuple(available)
        wanted = set(scenario.ground_station_names)
        unknown = wanted - set(available)
        if unknown:
            raise ValueError(
                f"scenario {scenario.name!r} references unknown stations: "
                f"{sorted(unknown)}"
            )
        return tuple(name for name in available if name in wanted)

    @staticmethod
    def _select_flows(
        matrix: TrafficMatrix,
        station_names: tuple[str, ...],
        flows_per_step: int,
        demand_multiplier: float,
    ) -> list[tuple[str, str, float]]:
        """Stage 2: filter, scale and budget the step's candidate flows.

        The sort key is total -- demand descending, then (src, dst) names --
        so the budget cut is deterministic even among equal-demand
        candidates, whatever order the matrix yields them in (and identical
        to the columnar engine's lexsorted selection).
        """
        names = set(station_names)
        candidates = [
            (source.name, destination.name, demand * demand_multiplier)
            for (source, destination, demand) in NetworkSimulator._matrix_entries(matrix)
            if source.name in names and destination.name in names
        ]
        candidates.sort(key=lambda item: (-item[2], item[0], item[1]))
        return candidates[:flows_per_step]

    @staticmethod
    def _route_flows(
        router: SnapshotRouter,
        candidate_flows: list[tuple[str, str, float]],
        route_cache: _SharedRouteCache | None = None,
    ) -> "_RoutedFlows":
        """Stage 3: route candidates, one batched backend call per step.

        All distinct sources are handed to the router in a single
        :meth:`~repro.network.routing.SnapshotRouter.routes_from_many` batch
        (array-native backends fuse them into one multi-source search).
        ``route_cache`` may be shared by every scenario evaluated on the same
        snapshot: shortest paths depend only on the snapshot, so a sweep pays
        each search once per step rather than once per scenario.

        The offered/routed totals come back as numpy reductions over the
        per-candidate demand vector -- the same reduction (over the same
        element order) the columnar engine uses, so the two engines' scalar
        statistics agree to the last bit.
        """
        cache = route_cache if route_cache is not None else _SharedRouteCache()
        sources = list(
            dict.fromkeys(f"gs:{source}" for source, _, _ in candidate_flows)
        )
        tables = cache.routes_from_many(router, sources) if sources else {}
        count = len(candidate_flows)
        demands = np.fromiter(
            (demand for _, _, demand in candidate_flows), dtype=float, count=count
        )
        routed_mask = np.zeros(count, dtype=bool)
        flows: list[Flow] = []
        latencies: list[float] = []
        for index, (source_name, destination_name, demand) in enumerate(
            candidate_flows
        ):
            route = tables[f"gs:{source_name}"].get(f"gs:{destination_name}")
            if route is None:
                continue
            routed_mask[index] = True
            latencies.append(route.latency_ms)
            flows.append(
                Flow(
                    name=f"{source_name}->{destination_name}",
                    path=route.path,
                    demand_gbps=demand,
                    # Array-native backends reconstruct paths as row
                    # sequences; carrying them lets the array allocators
                    # compile the flow without a label round-trip.
                    path_rows=route.path_rows,
                )
            )
        return _RoutedFlows(
            flows=flows,
            latencies=latencies,
            offered=float(demands.sum()),
            routed=float(demands[routed_mask].sum()),
            demands=demands[routed_mask],
        )

    @staticmethod
    def _allocate(
        capacity_graph, flows: list[Flow], allocator: str
    ) -> AllocationResult | None:
        """Stage 4: split link capacity among the routed flows.

        ``capacity_graph`` is a :class:`networkx.Graph` or any object
        duck-typing ``has_edge``/``edges[a, b]`` (the worker processes'
        :class:`_EdgeListCapacityView`).
        """
        if not flows:
            return None
        return get_allocator(allocator)(capacity_graph, flows)

    @staticmethod
    def _step_pair_telemetry(
        scenario: Scenario,
        station_names: tuple[str, ...],
        src_ids,
        dst_ids,
        demands,
    ) -> "PairTelemetry | None":
        """Stage 5a: collect the step's station-pair offered-demand summary."""
        if scenario.telemetry is None:
            return None
        model = get_telemetry(scenario.telemetry)
        telemetry = PairTelemetry(
            labels=tuple(station_names), store=model.store(len(demands))
        )
        telemetry.observe_pairs(src_ids, dst_ids, demands)
        return telemetry

    @staticmethod
    def _step_link_telemetry(
        scenario: Scenario,
        edge_list: SnapshotEdgeList,
        utilisation: np.ndarray,
    ) -> LinkTelemetry:
        """Stage 5b: fold one step's per-link utilisation into telemetry.

        Consumes the same link-index-order utilisation export the steering
        feedback runs on -- one signal, two consumers.  Only loaded links
        are observed, so the store tracks the hot set, and summed-over-steps
        values rank links by *sustained* heat.
        """
        model = get_telemetry(scenario.telemetry)
        hot = utilisation > 0.0
        telemetry = LinkTelemetry(
            labels=edge_list.labels,
            store=model.store(int(np.count_nonzero(hot))),
        )
        telemetry.observe_links(link_codes(edge_list)[hot], utilisation[hot])
        return telemetry

    @staticmethod
    def _finish_object_step(
        capacity_graph,
        scenario: Scenario,
        candidate_count: int,
        routed: "_RoutedFlows",
        utc_hour: float,
        satellites_up_fraction: float,
        stations_up_fraction: float,
        telemetry: "PairTelemetry | None",
        steering_controller,
        edge_list,
        uses_arrays: bool,
        tracer: "Tracer | None" = None,
    ) -> "tuple[StepStatistics, PairTelemetry | None, LinkTelemetry | None]":
        """Stages 4-5 of the object engine: allocate, close the loop, fold.

        Shared by the object engine and the columnar engine's reference
        fallback, so both close the steering control loop and export link
        signals identically.  Link telemetry needs the edge-list utilisation
        export, which exists exactly when the scenario allocates over a
        capacity view (array-native backend) or steers adaptively -- the
        condition is backend/steering-based, never executor-based, so a
        scenario collects the same telemetry under every executor.
        """
        obs = tracer if tracer is not None else NULL_TRACER
        with obs.span("allocation"):
            allocation = NetworkSimulator._allocate(
                capacity_graph, routed.flows, scenario.allocator
            )
            starved = 0.0
            if allocation is not None:
                # Dict insertion order is routed-flow order for every in-repo
                # allocator, so this is the per-flow rate vector.
                rates = np.fromiter(
                    allocation.allocated_gbps.values(),
                    dtype=float,
                    count=len(allocation.allocated_gbps),
                )
                starved = float(routed.demands[rates == 0.0].sum())
        latencies = routed.latencies
        steering_stats = None
        link_telemetry = None
        collect_links = (
            scenario.telemetry is not None
            and edge_list is not None
            and (uses_arrays or steering_controller is not None)
        )
        if steering_controller is not None or collect_links:
            # The utilisation export serves both loop closure and link
            # telemetry; attribute it to whichever consumer is live.
            with obs.span(
                "steering" if steering_controller is not None else "telemetry"
            ):
                utilisation = (
                    allocation.link_utilisation_array(edge_list)
                    if allocation is not None
                    else np.zeros(len(edge_list.a))
                )
                if steering_controller is not None:
                    # Routing ran on steered weights, which are preferences,
                    # not times: re-read true latencies from the snapshot.
                    paths = [flow.path for flow in routed.flows]  # repro-lint: ignore[RPL006]
                    latencies = path_delays(edge_list, paths)
                    steering_controller.observe(edge_list, utilisation)
                    steering_stats = steering_controller.step_stats()
            if collect_links:
                with obs.span("telemetry"):
                    link_telemetry = NetworkSimulator._step_link_telemetry(
                        scenario, edge_list, utilisation
                    )
        with obs.span("statistics"):
            stats = NetworkSimulator._step_statistics(
                scenario,
                utc_hour,
                candidate_count=candidate_count,
                routed_count=len(routed.flows),
                offered=routed.offered,
                routed_gbps=routed.routed,
                latencies=latencies,
                allocation=allocation,
                satellites_up_fraction=satellites_up_fraction,
                stations_up_fraction=stations_up_fraction,
                telemetry=telemetry,
                starved=starved,
                steering=steering_stats,
            )
        if obs.enabled:
            if steering_controller is not None:
                obs.gauge(
                    "steering_state_bytes", steering_controller.memory_bytes()
                )
            if telemetry is not None:
                obs.gauge("telemetry_bytes", telemetry.store.memory_bytes())
        return stats, telemetry, link_telemetry

    @staticmethod
    def _evaluate_scenario_step(
        router: "SnapshotRouter | None",
        capacity_graph,
        matrix: TrafficMatrix,
        scenario: Scenario,
        station_names: tuple[str, ...],
        flows_per_step: int,
        utc_hour: float,
        route_cache: _SharedRouteCache | None = None,
        satellites_up_fraction: float = 1.0,
        stations_up_fraction: float = 1.0,
        flow_engine: str = "objects",
        steering_controller=None,
        backend: "RoutingBackend | None" = None,
        tracer: "Tracer | None" = None,
    ) -> "tuple[StepStatistics, PairTelemetry | None, LinkTelemetry | None]":
        """Run stages 2-5 of the pipeline for one scenario at one step.

        ``flow_engine`` is the sweep default; :attr:`Scenario.flow_engine`
        overrides it per scenario.  With an adaptive ``steering_controller``
        the route tables follow the weights the step actually routes on.
        When :meth:`~repro.network.steering.SteeringController.steer`
        returns its input unchanged, the step routes on the shared
        ``router`` and ``route_cache`` like an open-loop scenario -- each
        source's table depends only on the snapshot, so it is bitwise the
        table a private router would compute.  When steering changes the
        weights (or no shared ``router`` was supplied), the step routes on
        a *private* router over the steered snapshot, with no cache: those
        tables carry per-scenario feedback state.  Allocation and all
        reported statistics still run against the unsteered capacities and
        delays.  Returns the step statistics plus the step's station-pair
        and per-link telemetry collections (``None`` when absent).
        """
        if scenario.flow_engine is not None:
            flow_engine = scenario.flow_engine
        if backend is None and router is not None:
            backend = router.backend
        obs = tracer if tracer is not None else NULL_TRACER
        edge_list = getattr(capacity_graph, "edge_list", None)
        if steering_controller is not None:
            if not isinstance(edge_list, SnapshotEdgeList):
                raise ValueError(
                    "adaptive steering requires an edge-list capacity view"
                )
            with obs.span("steering"):
                steered = steering_controller.steer(edge_list)
                if steered is not edge_list or router is None:
                    if getattr(backend, "uses_arrays", False):
                        router = SnapshotRouter(
                            backend=backend, arrays=steered.arrays()
                        )
                    else:
                        router = SnapshotRouter(steered.graph(), backend=backend)
                    route_cache = None
        if obs.enabled:
            obs.counter("steps")
        if flow_engine == "columnar":
            return NetworkSimulator._evaluate_columnar_step(
                router,
                capacity_graph,
                matrix,
                scenario,
                station_names,
                flows_per_step,
                utc_hour,
                route_cache=route_cache,
                satellites_up_fraction=satellites_up_fraction,
                stations_up_fraction=stations_up_fraction,
                steering_controller=steering_controller,
                tracer=obs,
            )
        with obs.span("flow_selection"):
            candidate_flows = NetworkSimulator._select_flows(
                matrix, station_names, flows_per_step, scenario.demand_multiplier
            )
        if obs.enabled:
            obs.counter("flows_selected", len(candidate_flows))
        telemetry: PairTelemetry | None = None
        if scenario.telemetry is not None:
            with obs.span("telemetry"):
                ids = {name: index for index, name in enumerate(station_names)}
                count = len(candidate_flows)
                telemetry = NetworkSimulator._step_pair_telemetry(
                    scenario,
                    station_names,
                    np.fromiter(
                        (ids[src] for src, _, _ in candidate_flows),
                        dtype=np.int64,
                        count=count,
                    ),
                    np.fromiter(
                        (ids[dst] for _, dst, _ in candidate_flows),
                        dtype=np.int64,
                        count=count,
                    ),
                    np.fromiter(
                        (demand for _, _, demand in candidate_flows),
                        dtype=float,
                        count=count,
                    ),
                )
        with obs.span("routing"):
            routed = NetworkSimulator._route_flows(router, candidate_flows, route_cache)
        if obs.enabled:
            obs.counter("flows_routed", len(routed.flows))
        return NetworkSimulator._finish_object_step(
            capacity_graph,
            scenario,
            candidate_count=len(candidate_flows),
            routed=routed,
            utc_hour=utc_hour,
            satellites_up_fraction=satellites_up_fraction,
            stations_up_fraction=stations_up_fraction,
            telemetry=telemetry,
            steering_controller=steering_controller,
            edge_list=edge_list,
            uses_arrays=getattr(backend, "uses_arrays", False),
            tracer=obs,
        )

    @staticmethod
    def _step_statistics(
        scenario: Scenario,
        utc_hour: float,
        candidate_count: int,
        routed_count: int,
        offered: float,
        routed_gbps: float,
        latencies,
        allocation: "AllocationResult | None",
        satellites_up_fraction: float,
        stations_up_fraction: float,
        telemetry: "PairTelemetry | None",
        delivered: "float | None" = None,
        worst_util: "float | None" = None,
        starved: float = 0.0,
        steering: "tuple[int, float, int] | None" = None,
    ) -> StepStatistics:
        """Stage 5: fold one step's pipeline outputs into statistics.

        The columnar fast path passes ``delivered`` / ``worst_util``
        directly from its solver vectors (no :class:`AllocationResult` is
        built); the object path derives them from the allocation here.
        ``starved`` is the demand of routed-but-zero-allocated flows (paths
        through dead links), folded into the stranded total; ``steering``
        carries the controller's ``(reroutes, max smoothed utilisation,
        flaps)`` observability triple.
        """
        if delivered is None:
            delivered = allocation.total_allocated() if allocation else 0.0
        if worst_util is None:
            worst_util = allocation.worst_link_utilisation() if allocation else 0.0
        latencies = np.asarray(latencies, dtype=float)
        top_pairs: tuple = ()
        if telemetry is not None:
            top_pairs = telemetry.top_pairs(
                get_telemetry(scenario.telemetry).summary_pairs
            )
        return StepStatistics(
            utc_hour=utc_hour,
            offered_gbps=offered,
            delivered_gbps=delivered,
            reachable_fraction=(
                routed_count / candidate_count if candidate_count else 1.0
            ),
            mean_latency_ms=(
                float(np.mean(latencies)) if latencies.size else float("inf")
            ),
            worst_link_utilisation=worst_util,
            stranded_gbps=max(0.0, offered - routed_gbps) + starved,
            satellites_up_fraction=satellites_up_fraction,
            stations_up_fraction=stations_up_fraction,
            top_pairs=top_pairs,
            steering_reroutes=steering[0] if steering is not None else 0,
            steering_max_utilisation=steering[1] if steering is not None else 0.0,
            steering_flaps=steering[2] if steering is not None else 0,
        )

    @staticmethod
    def _evaluate_columnar_step(
        router: SnapshotRouter,
        capacity_graph,
        matrix: TrafficMatrix,
        scenario: Scenario,
        station_names: tuple[str, ...],
        flows_per_step: int,
        utc_hour: float,
        route_cache: _SharedRouteCache | None = None,
        satellites_up_fraction: float = 1.0,
        stations_up_fraction: float = 1.0,
        steering_controller=None,
        tracer: "Tracer | None" = None,
    ) -> "tuple[StepStatistics, PairTelemetry | None, LinkTelemetry | None]":
        """Stages 2-5 with the columnar engine: no per-flow Python.

        Selection, routing fan-out, incidence compilation, allocation and
        every scalar statistic run as whole-array numpy over the step's
        :class:`~repro.network.flows.FlowTable`.  The fast path requires an
        array-native backend (bulk predecessor exports), an edge-list
        capacity view and an array allocator; any other combination routes
        the *same columnar selection* through the reference stages, so
        results are identical either way.  An adaptive
        ``steering_controller`` arrives *after* :meth:`steer` -- the caller
        already swapped ``router`` for a steered one where steering changed
        the weights -- so this stage only closes the loop: export
        utilisation, re-read true latencies, :meth:`observe`.
        """
        obs = tracer if tracer is not None else NULL_TRACER
        with obs.span("flow_selection"):
            table = select_flow_table(
                matrix, station_names, flows_per_step, scenario.demand_multiplier
            )
        if obs.enabled:
            obs.counter("flows_selected", table.flow_count)
            obs.gauge("flow_table_bytes", table.nbytes)
        if scenario.telemetry is not None:
            with obs.span("telemetry"):
                telemetry = NetworkSimulator._step_pair_telemetry(
                    scenario, station_names, table.src, table.dst, table.demand
                )
        else:
            telemetry = None
        edge_list = getattr(capacity_graph, "edge_list", None)
        routed = None
        if (
            getattr(router.backend, "uses_arrays", False)
            and isinstance(edge_list, SnapshotEdgeList)
            and scenario.allocator in ARRAY_SOLVERS
        ):
            with obs.span("routing"):
                routed = route_flow_table(router, table, route_cache)
        if routed is None:
            # Reference fallback: the columnar selection feeds the object
            # stages (graph-view backend, dict allocator, or a routing
            # table without bulk export).
            candidate_flows = table.candidates()
            with obs.span("routing"):
                reference = NetworkSimulator._route_flows(
                    router, candidate_flows, route_cache
                )
            if obs.enabled:
                obs.counter("flows_routed", len(reference.flows))
            return NetworkSimulator._finish_object_step(
                capacity_graph,
                scenario,
                candidate_count=len(candidate_flows),
                routed=reference,
                utc_hour=utc_hour,
                satellites_up_fraction=satellites_up_fraction,
                stations_up_fraction=stations_up_fraction,
                telemetry=telemetry,
                steering_controller=steering_controller,
                edge_list=edge_list if isinstance(edge_list, SnapshotEdgeList) else None,
                uses_arrays=getattr(router.backend, "uses_arrays", False),
                tracer=obs,
            )
        if obs.enabled:
            obs.counter("flows_routed", int(np.count_nonzero(routed.reachable)))
            obs.gauge("flow_table_bytes", routed.nbytes)
        demand, offsets, rows = routed.compact()
        delivered = 0.0
        worst_util = 0.0
        starved = 0.0
        system = None
        utilisation = None
        with obs.span("allocation"):
            if demand.size:
                system = compile_system_from_rows(capacity_graph, demand, offsets, rows)
                rates, utilisation = ARRAY_SOLVERS[scenario.allocator](system)
                delivered = float(rates.sum())
                if utilisation.size:
                    worst_util = float(utilisation.max())
                starved = float(demand[rates == 0.0].sum())
        if obs.enabled and system is not None:
            obs.gauge("incidence_bytes", system.nbytes)
        latencies = routed.latency_ms[routed.reachable]
        steering_stats = None
        link_telemetry = None
        # The fast path always has the edge-list export, so link telemetry
        # is gated exactly like the object path's capacity-view case.
        if steering_controller is not None or scenario.telemetry is not None:
            with obs.span(
                "steering" if steering_controller is not None else "telemetry"
            ):
                link_utilisation = (
                    system.link_utilisation_array(utilisation, len(edge_list.a))
                    if system is not None
                    else np.zeros(len(edge_list.a))
                )
                if steering_controller is not None:
                    # Steered routing distances are preferences, not times:
                    # re-read true latencies from the unsteered delay column.
                    latencies = path_delays_from_rows(edge_list, offsets, rows)
                    steering_controller.observe(edge_list, link_utilisation)
                    steering_stats = steering_controller.step_stats()
            if scenario.telemetry is not None:
                with obs.span("telemetry"):
                    link_telemetry = NetworkSimulator._step_link_telemetry(
                        scenario, edge_list, link_utilisation
                    )
        with obs.span("statistics"):
            stats = NetworkSimulator._step_statistics(
                scenario,
                utc_hour,
                candidate_count=table.flow_count,
                routed_count=int(np.count_nonzero(routed.reachable)),
                offered=float(table.demand.sum()),
                routed_gbps=float(demand.sum()),
                latencies=latencies,
                allocation=None,
                satellites_up_fraction=satellites_up_fraction,
                stations_up_fraction=stations_up_fraction,
                telemetry=telemetry,
                delivered=delivered,
                worst_util=worst_util,
                starved=starved,
                steering=steering_stats,
            )
        if obs.enabled:
            if steering_controller is not None:
                obs.gauge(
                    "steering_state_bytes", steering_controller.memory_bytes()
                )
            if telemetry is not None:
                obs.gauge("telemetry_bytes", telemetry.store.memory_bytes())
        return stats, telemetry, link_telemetry

    def _simulate_step(
        self,
        router: "SnapshotRouter | None",
        capacity_graph,
        matrix: TrafficMatrix,
        scenario: Scenario,
        station_names: tuple[str, ...],
        utc_hour: float,
        route_cache: _SharedRouteCache | None = None,
        satellites_up_fraction: float = 1.0,
        stations_up_fraction: float = 1.0,
        flow_engine: str = "objects",
        steering_controller=None,
        backend: "RoutingBackend | None" = None,
        tracer: "Tracer | None" = None,
    ) -> "tuple[StepStatistics, PairTelemetry | None, LinkTelemetry | None]":
        """Resolve the scenario's flow budget and evaluate one step."""
        flows_per_step = (
            scenario.flows_per_step
            if scenario.flows_per_step is not None
            else self.flows_per_step
        )
        return self._evaluate_scenario_step(
            router,
            capacity_graph,
            matrix,
            scenario,
            station_names,
            flows_per_step,
            utc_hour,
            route_cache=route_cache,
            satellites_up_fraction=satellites_up_fraction,
            stations_up_fraction=stations_up_fraction,
            flow_engine=flow_engine,
            steering_controller=steering_controller,
            backend=backend,
            tracer=tracer,
        )

    @staticmethod
    def _matrix_entries(matrix) -> list:
        """Yield (source_city, destination_city, demand) for non-zero entries."""
        entries = []
        for i, source in enumerate(matrix.cities):
            for j, destination in enumerate(matrix.cities):
                demand = float(matrix.demands[i, j])
                if i != j and demand > 0:
                    entries.append((source, destination, demand))
        return entries


def run_grid(
    designs: "MappingType[str, ConstellationTopology | MultiShellTopology]",
    scenarios: list[Scenario],
    ground_stations: list[GroundStation],
    start: Epoch,
    duration_hours: float,
    *,
    traffic_model: GravityTrafficModel | None = None,
    step_hours: float = 1.0,
    flows_per_step: int = 50,
    backend: "str | RoutingBackend" = "networkx",
    max_workers: int | None = None,
    executor: str = "thread",
    flow_engine: str = "objects",
    steering: str | None = None,
    instrument: bool = False,
    progress=None,
    output_path: "str | Path | None" = None,
) -> dict[tuple[str, str], SimulationResult]:
    """Cross-product sweep: every constellation design times every scenario.

    Composes the design-layer axis (named topologies -- e.g. the outcome of
    a bandwidth-multiplier sweep over
    :class:`repro.core.designer.ConstellationDesigner`) with the
    traffic-scenario axis: each design runs one shared-sequence
    :meth:`NetworkSimulator.run_scenarios` sweep over *all* scenarios, and
    the result is keyed by ``(design_name, scenario_name)``.

    With ``output_path`` the grid is persisted as a JSON document for the
    analysis layer: one record per cell carrying the summary metrics
    (mean/worst delivery ratio, mean latency) plus the full per-step
    statistics, together with the sweep axes and time grid.

    ``backend`` / ``max_workers`` / ``executor`` / ``steering`` /
    ``instrument`` are forwarded to every per-design sweep, so a large grid
    can route array-natively, scale over processes, close the
    congestion-steering loop and attach per-stage
    :class:`~repro.obs.RunMetrics` per cell.  ``progress`` observes the
    *whole grid* through one shared :class:`~repro.obs.ProgressTracker`
    (total cells = designs x scenarios x steps), so the reported ETA spans
    every remaining design, not just the sweep in flight.
    """
    if not designs:
        raise ValueError("at least one design is required")
    tracker = None
    if progress is not None:
        if isinstance(progress, ProgressTracker):
            tracker = progress
        else:
            steps = len(
                epoch_range(start, duration_hours * 3600.0, step_hours * 3600.0)
            )
            tracker = ProgressTracker(
                total=len(designs) * len(scenarios) * steps, callback=progress
            )
    cells: dict[tuple[str, str], SimulationResult] = {}
    for design_name, topology in designs.items():
        simulator = NetworkSimulator(
            topology=topology,
            ground_stations=list(ground_stations),
            traffic_model=traffic_model
            if traffic_model is not None
            else GravityTrafficModel(),
            flows_per_step=flows_per_step,
        )
        sweep = simulator.run_scenarios(
            scenarios,
            start,
            duration_hours,
            step_hours,
            max_workers=max_workers,
            backend=backend,
            executor=executor,
            flow_engine=flow_engine,
            steering=steering,
            instrument=instrument,
            progress=tracker,
        )
        for scenario_name, result in sweep.items():
            cells[(design_name, scenario_name)] = result
    if output_path is not None:
        def _finite(value: float) -> "float | None":
            # Unreachable steps carry inf/nan latencies; RFC 8259 has no
            # such tokens, so persist them as null to keep the file loadable
            # by any JSON consumer.
            return value if np.isfinite(value) else None

        def _step_record(step: StepStatistics) -> dict:
            record = asdict(step)
            record["mean_latency_ms"] = _finite(step.mean_latency_ms)
            return record

        document = {
            "start_jd": start.jd,
            "duration_hours": duration_hours,
            "step_hours": step_hours,
            "designs": list(designs),
            "scenarios": [scenario.name for scenario in scenarios],
            "cells": [
                {
                    "design": design_name,
                    "scenario": scenario_name,
                    "mean_delivery_ratio": result.mean_delivery_ratio(),
                    "worst_delivery_ratio": result.worst_step().delivery_ratio,
                    "mean_latency_ms": _finite(result.mean_latency_ms()),
                    "steps": [_step_record(step) for step in result.steps],
                }
                for (design_name, scenario_name), result in cells.items()
            ],
        }
        Path(output_path).write_text(
            json.dumps(document, indent=2, allow_nan=False)
        )
    return cells
