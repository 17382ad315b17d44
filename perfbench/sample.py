"""One timed sample of one workload, in a fresh interpreter.

``run.py`` launches this script once per sample and reads the single JSON
line it prints.  A sample has two phases:

* **set-up** -- interpreter start, imports, input construction from the
  workload seed and, for the network workloads, one tiny warm-up sweep;
* **timed part** -- the workload itself, at its stated input size.

Both are reported in reference seconds: a :class:`speed.SpeedProbe` runs
from the start of ``main`` to the end of the timed part, and takes the
host's drift in speed out of the wall-clock (``speed.py`` says how).  The
raw wall-clock times are reported too, as ``raw_setup_s`` and
``raw_wall_s``.

The outputs are then checked (checks are not timed) and summarised as an
operation count, failures, and a digest of the results.  With ``--trace 1``
the timed part runs with the :mod:`layers` hooks installed and the sample
also reports per-layer metrics.

Usage: ``python3 sample.py --workload NAME --seed N --trace 0|1
--spawned MONOTONIC [--smoke]`` from anywhere; the repository's ``src``
directory is located relative to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (sibling modules; need no repro import)
import speed  # noqa: E402

WORKLOADS = ("paper", "net-sweep", "net-flows")

#: Input sizes of the network workloads.  ``full`` is what the benchmark
#: measures; ``smoke`` is a seconds-scale version for the benchmark's tests.
#: ``total_demand`` is the gravity model's instantaneous total offered load,
#: scaled so that the healthy network delivers a mid-range share of it
#: (neither ~0 nor ~1), which keeps the allocators doing real work.
NETWORK_SIZES = {
    "net-sweep": {
        "full": dict(satellites=1296, planes=36, stations=40, flows_per_step=300,
                     duration_hours=24.0, step_hours=0.5, total_demand=250.0),
        "smoke": dict(satellites=120, planes=8, stations=12, flows_per_step=40,
                      duration_hours=2.0, step_hours=0.5, total_demand=20.0),
    },
    "net-flows": {
        "full": dict(satellites=360, planes=18, stations=335, flows_per_step=100_000,
                     duration_hours=24.0, step_hours=2.0, total_demand=600.0),
        "smoke": dict(satellites=120, planes=8, stations=60, flows_per_step=2_000,
                      duration_hours=4.0, step_hours=2.0, total_demand=60.0),
    },
}

#: The warm-up sweep run during set-up: the workload's own scenarios on a
#: tiny shell over two steps, so imports and lazy initialisation are paid
#: before the clock starts.
WARMUP_SIZE = dict(satellites=48, planes=4, stations=6, flows_per_step=10,
                   duration_hours=1.0, step_hours=0.5, total_demand=10.0)


class Clock:
    """Times one sample: set-up from launch to :meth:`start`, timed part from
    :meth:`start` to :meth:`stop`, in reference seconds and raw.

    ``spawned`` is the parent's ``time.monotonic()`` just before launch.  The
    speed probe starts with the clock; the interpreter's start-up and the
    numpy import before that (about 0.2 s) are counted raw.
    """

    def __init__(self, spawned: float):
        self.probe = speed.SpeedProbe()
        self.probe.start()
        self.launched = time.monotonic() - spawned
        self.began = time.perf_counter()

    def start(self) -> None:
        self.begin = time.perf_counter()
        self.setup_s = self.launched + self.probe.reference_seconds(self.began, self.begin)
        self.raw_setup_s = self.launched + (self.begin - self.began)

    def stop(self) -> None:
        self.end = time.perf_counter()
        self.probe.stop()
        self.wall_s = self.probe.reference_seconds(self.begin, self.end)
        self.raw_wall_s = self.end - self.begin

    def record(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "raw_setup_s": self.raw_setup_s,
            "raw_wall_s": self.raw_wall_s,
            "slowness": self.probe.median_slowness(self.begin, self.end),
        }


def _hooks(recorder):
    """Install the trace hooks for the timed part only (set-up stays untraced)."""
    return recorder.installed() if recorder is not None else nullcontext()


def _span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def _digest(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


# -- paper pipeline -------------------------------------------------------------


def _table_rows(text: str) -> list[list[str]]:
    """Cells of a ``repro.analysis.report.format_table`` table, header excluded."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return [[cell.strip() for cell in line.split("|")] for line in lines[2:]]


def check_fig09(text: str) -> list[str]:
    """Invariants of the SS vs Walker sweep that hold whatever the counts are."""
    rows = _table_rows(text)
    if not rows:
        return ["fig09: empty table"]
    problems = []
    multipliers = [float(row[0]) for row in rows]
    ss = [int(row[1]) for row in rows]
    wd = [int(row[2]) for row in rows]
    if multipliers != sorted(multipliers):
        problems.append("fig09: multipliers not ascending")
    for m, s, w in zip(multipliers, ss, wd):
        if s > w:
            problems.append(f"fig09: SS {s} > WD {w} at multiplier {m}")
    for label, series in (("SS", ss), ("WD", wd)):
        if any(b < a for a, b in zip(series, series[1:])):
            problems.append(f"fig09: {label} count decreases with the multiplier")
    for row in rows:
        for value in map(float, row[4:8]):
            if not (math.isfinite(value) and value > 0):
                problems.append(f"fig09: fluence {value} not finite and positive")
    return problems


def check_claims(text: str) -> list[str]:
    rows = _table_rows(text)
    if len(rows) != 4:
        return [f"claims: expected 4 rows, got {len(rows)}"]
    problems = []
    for row in rows[:3]:
        if not math.isfinite(float(row[1])):
            problems.append(f"claims: {row[0]} is not finite")
    if rows[3][1] not in ("True", "False"):
        problems.append(f"claims: {rows[3][0]} is not a boolean")
    return problems


def paper_sample(seed: int, smoke: bool, recorder, clock: Clock) -> dict:
    """All registered experiments at full (or, for smoke, ``--quick``) settings.

    The workload is seedless: ``seed`` is recorded, not used.  Every sample
    runs in a fresh interpreter because the Walker sizing cache is
    process-global and every ``experiments --all`` run pays to fill it.
    """
    from repro.analysis.experiments import EXPERIMENTS, run_experiment

    ids = list(EXPERIMENTS)
    outputs: dict[str, str] = {}
    failures: list[str] = []
    with _hooks(recorder):
        clock.start()
        for experiment_id in ids:
            try:
                with _span(recorder, f"analysis.experiments.{experiment_id}"):
                    outputs[experiment_id] = run_experiment(experiment_id, quick=smoke)
            except Exception as error:  # an operation that raises is a failed one
                failures.append(f"{experiment_id}: {type(error).__name__}: {error}")
        clock.stop()

    for experiment_id, text in outputs.items():
        checker = {"fig09": check_fig09, "claims": check_claims}.get(experiment_id)
        try:
            problems = [] if text.strip() else [f"{experiment_id}: empty output"]
            if checker is not None and not problems:
                problems = checker(text)
        except (ValueError, IndexError) as error:
            problems = [f"{experiment_id}: unparseable output ({error})"]
        failures.extend(problems)
    failed_ids = {message.split(":", 1)[0] for message in failures}
    return {
        "attempted": len(ids),
        "failed": len(failed_ids),
        "failures": failures,
        "digest": _digest(f"{i}\n{outputs.get(i, '<failed>')}" for i in ids),
        "tables": {i: outputs.get(i, "") for i in ("fig09", "claims")},
        "cells": 0,
    }


# -- network sweeps --------------------------------------------------------------


def synthetic_cities(count: int, seed: int):
    """A world-spanning station set drawn from ``seed``.

    Stations lie on a golden-ratio spiral (so every seed spreads them evenly
    and the work per step does not depend on the seed) rotated by a seeded
    offset; weights are log-normal draws (sigma 0.75).  Latitudes stay within +/-55
    degrees, inside a 65-degree shell's coverage.
    """
    import numpy as np
    from repro.demand.traffic_matrix import City

    rng = np.random.default_rng(seed)
    lat_phase, lon_phase = rng.random(2)
    golden = (1.0 + 5.0**0.5) / 2.0
    index = np.arange(count)
    latitudes = -55.0 + 110.0 * ((index * golden + lat_phase) % 1.0)
    longitudes = -180.0 + 360.0 * ((index * golden * golden + lon_phase) % 1.0)
    weights = rng.lognormal(0.0, 0.75, size=count)
    return tuple(
        City(f"S{i:03d}", float(latitudes[i]), float(longitudes[i]), float(weights[i]))
        for i in range(count)
    )


def _allocator(name: str) -> str:
    """The array allocator, under its registry name of the day."""
    from repro.network.capacity import ALLOCATORS

    array_name = f"{name}_array"
    return array_name if array_name in ALLOCATORS else name


def network_scenarios(workload: str, seed: int):
    """The workload's scenarios; fault draws are seeded from ``seed``."""
    from repro.network.simulation import Scenario

    if workload == "net-flows":
        return [Scenario(name="flows", allocator=_allocator("proportional"),
                         telemetry="sketch")]
    faults = (
        ("plane_outage", {"count": 1, "seed": seed}),
        ("link_degradation", {"factor": 0.25, "fraction": 0.1, "seed": seed + 1}),
    )
    proportional = _allocator("proportional")
    return [
        Scenario(name="healthy", allocator=proportional),
        Scenario(name="faulted", allocator=proportional, faults=faults),
        Scenario(name="faulted_steered", allocator=proportional, faults=faults,
                 steering="congestion-aware"),
        Scenario(name="peak_maxmin", demand_multiplier=2.0,
                 allocator=_allocator("max_min"), telemetry="sketch"),
    ]


def build_network(workload: str, size: dict, seed: int):
    """Simulator, scenarios and sweep arguments for one input size."""
    from repro.coverage.walker import WalkerDelta
    from repro.demand.traffic_matrix import GravityTrafficModel
    from repro.network.ground_station import GroundStation
    from repro.network.simulation import NetworkSimulator
    from repro.network.topology import ConstellationTopology
    from repro.orbits.time import Epoch

    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    pattern = WalkerDelta(altitude_km=560.0, inclination_deg=65.0,
                          total_satellites=size["satellites"], planes=size["planes"],
                          phasing=1)
    elements = pattern.satellite_elements()
    per_plane = pattern.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane:(i + 1) * per_plane] for i in range(pattern.planes)],
        epoch=epoch,
    )
    cities = synthetic_cities(size["stations"], seed)
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=[GroundStation(c.name, c.latitude_deg, c.longitude_deg)
                         for c in cities],
        traffic_model=GravityTrafficModel(cities=cities, total_demand=size["total_demand"]),
        flows_per_step=size["flows_per_step"],
    )
    # Single-process, serial, csgraph routing; the columnar flow engine is
    # requested only while the sweep still offers the choice.
    kwargs = {"backend": "csgraph"}
    if "flow_engine" in inspect.signature(NetworkSimulator.run_scenarios).parameters:
        kwargs["flow_engine"] = "columnar"
    scenarios = network_scenarios(workload, seed)
    return lambda: simulator.run_scenarios(
        scenarios, epoch, size["duration_hours"], size["step_hours"], **kwargs
    )


def check_step(step) -> list[str]:
    """Per-cell invariants: delivered <= routed <= offered, rates >= 0,
    latency finite wherever traffic was delivered.

    Routed demand is what the allocators saw minus the flows they gave
    nothing: ``offered - stranded`` (stranded = unrouted demand plus the
    demand of zero-allocated flows), so delivered <= offered - stranded <=
    offered is the conservation chain.
    """
    tolerance = 1e-9 * max(1.0, step.offered_gbps)
    routed = step.offered_gbps - step.stranded_gbps
    problems = []
    if min(step.offered_gbps, step.delivered_gbps, step.stranded_gbps,
           step.worst_link_utilisation) < 0:
        problems.append("negative rate")
    if step.delivered_gbps > routed + tolerance:
        problems.append(f"delivered {step.delivered_gbps} > routed {routed}")
    if routed > step.offered_gbps + tolerance or routed < -tolerance:
        problems.append(f"routed {routed} outside [0, offered {step.offered_gbps}]")
    if step.delivered_gbps > 0 and not math.isfinite(step.mean_latency_ms):
        problems.append("traffic delivered with non-finite latency")
    return problems


def network_sample(workload: str, seed: int, smoke: bool, recorder, clock: Clock) -> dict:
    from repro.orbits.time import step_count

    size = NETWORK_SIZES[workload]["smoke" if smoke else "full"]
    run = build_network(workload, size, seed)
    build_network(workload, WARMUP_SIZE, seed)()
    cells = len(network_scenarios(workload, seed)) * step_count(
        size["duration_hours"], size["step_hours"]
    )
    failures: list[str] = []
    results = {}
    with _hooks(recorder):
        clock.start()
        try:
            with _span(recorder, layers.SIMULATION_LAYER):
                results = run()
        except Exception as error:  # the sweep raised: every cell failed
            failures.append(f"sweep: {type(error).__name__}: {error}")
        clock.stop()

    parts = []
    failed = cells if failures else 0
    delivered = offered = 0.0
    for name, result in results.items():
        for index, step in enumerate(result.steps):
            problems = check_step(step)
            if problems:
                failed += 1
                failures.append(f"{name} step {index}: {'; '.join(problems)}")
            parts.append(f"{name}|{index}|{dataclasses.astuple(step)!r}")
            delivered += step.delivered_gbps
            offered += step.offered_gbps
    if results and len(parts) != cells:
        failed = cells
        failures.append(f"sweep returned {len(parts)} cells, expected {cells}")
    return {
        "attempted": cells,
        "failed": failed,
        "failures": failures,
        "digest": _digest(parts),
        "delivery_ratio": delivered / offered if offered else None,
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before launch")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    clock = Clock(args.spawned)
    recorder = layers.SpanRecorder() if args.trace else None
    record = _run(args, recorder, clock) | clock.record()
    if recorder is not None:
        # Spans are raw wall-clock, so the layers add up to the raw wall time.
        record["layers"] = layers.layer_metrics(
            recorder, record["raw_wall_s"], cells=record["cells"]
        )
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


def _run(args, recorder, clock: Clock) -> dict:
    if args.workload == "paper":
        return paper_sample(args.seed, args.smoke, recorder, clock)
    return network_sample(args.workload, args.seed, args.smoke, recorder, clock)


if __name__ == "__main__":
    sys.exit(main())
