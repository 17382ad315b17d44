"""Per-layer tracing for the benchmark, done entirely from outside the program.

A :class:`SpanRecorder` replaces public entry points of the ``repro`` layers
with thin wrappers *where their callers look them up* (a module global such
as ``repro.core.walker_baseline.minimum_walker_for_coverage``, or a method on
its class such as ``ExposureCalculator.daily_fluence``).  Each wrapped call
records one span -- ``(name, start, end, parent)`` -- in memory, and may bump
a work counter from its arguments or result.  The wrappers only read the
clock and the call's inputs/outputs, so a traced run computes exactly what
an untraced one does; the benchmark checks that by comparing output digests.

A hook whose target no longer exists is skipped (its counters read 0), and
a counter that cannot read its call's arguments or result counts nothing,
so a later refactor of a layer changes what the trace sees, never whether
the benchmark runs.

:func:`layer_metrics` folds the spans into the per-layer metrics listed in
``BENCHMARK.json``: each layer's busy time (its own code, nested layers
excluded), the sweep loop's self time, work counts and the ratios derived from
them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Identifiers of the paper pipeline's experiments, in registry order.  The
#: per-experiment busy times are per-layer metrics, so the list is fixed here
#: and mirrored in ``BENCHMARK.json``.
EXPERIMENT_IDS = (
    "fig01", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "fig09", "claims",
)


def _count(key):
    """Counter hook adding one per call."""
    return lambda counts, args, result: counts.update({key: 1})


def _searches(counts, args, result):
    # CSGraphBackend.routes_from_many(self, router, sources)
    counts["network.backends.searches"] += 1
    counts["network.backends.sources"] += len(args[2])


def _propagated(counts, args, result):
    # BatchPropagator.positions_eci_offsets(self, offsets_s)
    counts["orbits.propagation.samples"] += int(np.size(args[1])) * args[0].satellite_count


def _keyed(counts, args, result):
    # ExposureCalculator.constellation_fluences(self, satellites)
    counts["radiation.exposure.satellites"] += len(args[1])


def _planes(counts, args, result):
    counts["core.greedy_cover.planes"] += result.plane_count


def _shells(counts, args, result):
    counts["core.walker_baseline.shells"] += result.shell_count


def _edges(counts, args, result):
    counts["network.topology.edges"] += len(result.a)


def _routed(counts, args, result):
    if result is not None:
        counts["network.flows.flows_routed"] += int(np.count_nonzero(result.reachable))


def _allocated(counts, args, result):
    # compile_system_from_rows(capacity_graph, demand, offsets, rows)
    counts["network.alloc_arrays.flows_allocated"] += len(args[1])


def _reroutes(counts, args, result):
    # SteeringController.step_stats() -> (reroutes, max utilisation, flaps)
    counts["network.steering.reroutes"] += int(result[0])


#: ``(module, attribute path, layer, counter)``: every entry point the trace
#: wraps.  Module-level functions are wrapped in the namespace of the module
#: that *calls* them (that is where the name is looked up at call time).
HOOKS = (
    # -- design pipeline ---------------------------------------------------
    ("repro.core.walker_baseline", "minimum_walker_for_coverage", "coverage.walker",
     _count("coverage.walker.searches")),
    ("repro.core.rgt_baseline", "minimum_walker_for_coverage", "coverage.walker",
     _count("coverage.walker.searches")),
    ("repro.coverage.walker", "is_continuously_covered", "coverage.walker",
     _count("coverage.walker.patterns_checked")),
    ("repro.coverage.walker", "coverage_fraction", "coverage.walker",
     _count("coverage.walker.snapshots")),
    ("repro.radiation.exposure", "ExposureCalculator.daily_fluence", "radiation.exposure",
     _count("radiation.exposure.orbits")),
    ("repro.radiation.exposure", "ExposureCalculator.constellation_fluences",
     "radiation.exposure", _keyed),
    ("repro.orbits.propagation", "BatchPropagator.positions_eci_offsets",
     "orbits.propagation", _propagated),
    ("repro.core.greedy_cover", "GreedySSPlaneDesigner.design", "core.greedy_cover", _planes),
    ("repro.core.walker_baseline", "DemandDrivenWalkerDesigner.design",
     "core.walker_baseline", _shells),
    ("repro.analysis.figures", "rgt_vs_walker_sweep", "core.rgt_baseline", None),
    ("repro.demand.population", "PopulationModel.density_grid", "demand", None),
    ("repro.demand.spatiotemporal", "SpatiotemporalDemandModel.snapshot", "demand", None),
    ("repro.demand.spatiotemporal", "SpatiotemporalDemandModel.latitude_time_grid",
     "demand", None),
    ("repro.demand.diurnal", "SyntheticTrafficDataset.generate", "demand", None),
    ("repro.analysis.figures", "time_of_day_percentiles", "demand", None),
    ("repro.demand.traffic_matrix", "GravityTrafficModel.matrix_at", "demand", None),
    # -- network sweep -----------------------------------------------------
    ("repro.network.topology", "ConstellationTopology.snapshot_sequence",
     "network.topology", None),
    ("repro.network.topology", "SnapshotSequence.edge_list", "network.topology", _edges),
    ("repro.network.simulation", "compile_faults", "network.faults",
     _count("network.faults.compiles")),
    ("repro.network.backends", "CSGraphBackend.routes_from_many", "network.backends",
     _searches),
    ("repro.network.backends", "SnapshotEdgeList.arrays", "network.backends", None),
    ("repro.network.flows", "bulk_path_rows_many", "network.backends", None),
    ("repro.network.simulation", "select_flow_table", "network.flows", None),
    ("repro.network.simulation", "route_flow_table", "network.flows", _routed),
    ("repro.network.flows", "RoutedFlowTable.compact", "network.flows", None),
    ("repro.network.simulation", "compile_system_from_rows", "network.alloc_arrays",
     _allocated),
    ("repro.network.alloc_arrays", "ARRAY_SOLVERS[proportional_array]",
     "network.alloc_arrays", None),
    ("repro.network.alloc_arrays", "ARRAY_SOLVERS[max_min_array]",
     "network.alloc_arrays", None),
    ("repro.network.alloc_arrays", "FlowLinkSystem.link_utilisation_array",
     "network.alloc_arrays", None),
    ("repro.network.telemetry", "PairTelemetry.observe_pairs", "network.telemetry", None),
    ("repro.network.telemetry", "PairTelemetry.top_pairs", "network.telemetry", None),
    ("repro.network.telemetry", "PairTelemetry.merge", "network.telemetry", None),
    ("repro.network.telemetry", "LinkTelemetry.observe_links", "network.telemetry", None),
    ("repro.network.telemetry", "LinkTelemetry.merge", "network.telemetry", None),
    ("repro.network.steering", "SteeringController.steer", "network.steering", None),
    ("repro.network.steering", "SteeringController.observe", "network.steering", None),
    ("repro.network.steering", "SteeringController.step_stats", "network.steering",
     _reroutes),
    ("repro.network.simulation", "path_delays_from_rows", "network.steering", None),
)

#: Layers whose busy time is reported, in report order.
BUSY_LAYERS = (
    "coverage.walker",
    "radiation.exposure",
    "orbits.propagation",
    "core.greedy_cover",
    "core.walker_baseline",
    "core.rgt_baseline",
    "demand",
    "network.topology",
    "network.faults",
    "network.backends",
    "network.flows",
    "network.alloc_arrays",
    "network.telemetry",
    "network.steering",
)

#: Work counters reported as-is.
COUNTERS = (
    "coverage.walker.searches",
    "coverage.walker.patterns_checked",
    "coverage.walker.snapshots",
    "radiation.exposure.orbits",
    "radiation.exposure.satellites",
    "orbits.propagation.samples",
    "core.greedy_cover.planes",
    "core.walker_baseline.shells",
    "network.topology.edges",
    "network.faults.compiles",
    "network.backends.searches",
    "network.backends.sources",
    "network.flows.flows_routed",
    "network.alloc_arrays.flows_allocated",
    "network.steering.reroutes",
)

#: The simulation layer of a network sweep: a span the benchmark opens around
#: ``NetworkSimulator.run_scenarios``.
SIMULATION_LAYER = "network.simulation"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {f"{layer}.busy_s": "s" for layer in BUSY_LAYERS}
    units.update({name: "count" for name in COUNTERS})
    units.update(
        {
            "coverage.walker.accept_ratio": "ratio",
            "radiation.exposure.dedup_ratio": "ratio",
            "network.backends.share_ratio": "ratio",
            f"{SIMULATION_LAYER}.self_s": "s",
            "analysis.experiments.self_s": "s",
            "unattributed_s": "s",
            "trace_overhead_frac": "ratio",
        }
    )
    units.update({f"analysis.experiments.{i}.busy_s": "s" for i in EXPERIMENT_IDS})
    return units


_MISSING = object()


def _resolve(module_name: str, path: str):
    """Return ``(owner, key, current)`` for a hook target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if leaf.endswith("]"):
        attr, key = leaf[:-1].split("[")
        table = getattr(owner, attr, None)
        if not isinstance(table, dict) or key not in table:
            return None
        return table, key, table[key]
    # Look the attribute up where a call finds it: on a class that may be
    # the class itself or a base, so read through getattr, not __dict__.
    current = getattr(owner, leaf, None)
    if not callable(current):
        return None
    # Only plain functions are wrapped on a class: a wrapper replacing a
    # staticmethod or classmethod would change how it binds.
    if isinstance(owner, type) and not inspect.isfunction(
        inspect.getattr_static(owner, leaf)
    ):
        return None
    return owner, leaf, current


class SpanRecorder:
    """In-memory span and counter store with install/uninstall of hooks."""

    def __init__(self):
        #: ``(name, start, end, parent index or -1)`` per finished span,
        #: stored at the index the span was opened with.
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def _wrap(self, function, layer: str, counter):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index, parent = recorder._open()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._close(index, parent, layer, start)
            if counter is not None:
                try:
                    counter(recorder.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the call's shape changed: leave this count alone
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every resolvable hook target; restore them all on exit."""
        restore = []
        try:
            for module_name, path, layer, counter in HOOKS:
                target = _resolve(module_name, path)
                if target is None:
                    continue
                owner, key, current = target
                if isinstance(owner, dict):
                    restore.append((owner, key, current, True))
                    owner[key] = self._wrap(current, layer, counter)
                    continue
                # Remember whether the attribute lived on this very object
                # (restore it) or was inherited (delete the shadow).
                own = owner.__dict__.get(key, _MISSING)
                restore.append((owner, key, own, False))
                setattr(owner, key, self._wrap(current, layer, counter))
            yield self
        finally:
            for owner, key, original, is_dict in reversed(restore):
                if is_dict:
                    owner[key] = original
                elif original is _MISSING:
                    delattr(owner, key)
                else:
                    setattr(owner, key, original)


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, wall_s: float, cells: int = 0) -> dict[str, float]:
    """Fold one traced sample's spans into per-layer metric values.

    A span's self time is its duration minus its direct children's.  A
    layer's ``busy_s`` is the summed self time of its spans: the time spent in
    the layer's own code, excluding the lower layers it called, so the
    layers' busy times, the sweep loop's self time and ``unattributed_s``
    add up to the sample's wall time; on the paper pipeline the experiments'
    own code (``analysis.experiments.self_s``) takes the sweep loop's place.  An
    experiment's ``busy_s`` is instead its whole duration (the experiments
    partition the paper pipeline).
    ``unattributed_s`` is the wall time not covered by any top-level span.
    ``cells`` is the number of scenario-step evaluations, the numerator of
    the routing share ratio.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: Counter = Counter()
    top_level: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        busy[name] += end - start - child_time[index]
        if parent < 0:
            top_level[name] += end - start

    counts = recorder.counts
    values = {f"{layer}.busy_s": busy[layer] for layer in BUSY_LAYERS}
    values.update({name: counts[name] for name in COUNTERS})
    values["coverage.walker.accept_ratio"] = _ratio(
        counts["coverage.walker.searches"], counts["coverage.walker.patterns_checked"]
    )
    values["radiation.exposure.dedup_ratio"] = _ratio(
        counts["radiation.exposure.satellites"], counts["radiation.exposure.orbits"]
    )
    values["network.backends.share_ratio"] = _ratio(
        cells, counts["network.backends.searches"]
    )
    values[f"{SIMULATION_LAYER}.self_s"] = busy[SIMULATION_LAYER]
    values["unattributed_s"] = wall_s - sum(top_level.values())
    for experiment in EXPERIMENT_IDS:
        values[f"analysis.experiments.{experiment}.busy_s"] = top_level[
            f"analysis.experiments.{experiment}"
        ]
    values["analysis.experiments.self_s"] = sum(
        busy[f"analysis.experiments.{experiment}"] for experiment in EXPERIMENT_IDS
    )
    return values
