"""Experiment registry and command-line runner.

Every figure of the paper maps to one registered experiment.  Running

    python -m repro.analysis.experiments --all

regenerates all of them and prints their series and tables (the benchmark's
``paper`` manifest records the fig09 and claims tables).  Individual
experiments can be selected by id: ``fig01`` ... ``fig09`` and ``claims``,
where ``fig09`` produces both Figure 9 and Figure 10.  A ``--quick`` flag
uses coarser grids and smaller sweeps so the full suite finishes in a
couple of minutes on a laptop.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import figures
from ..obs import Tracer, get_exporter
from .report import format_grid_summary, format_series, format_table

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment", "main"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a figure of the paper and how to render it."""

    experiment_id: str
    title: str
    runner: Callable[[bool], str]


def _run_fig01(quick: bool) -> str:
    max_altitude = 1700.0 if quick else 2000.0
    data = figures.figure01_rgt_vs_walker(max_altitude_km=max_altitude)
    rows = [
        [
            round(float(alt), 1),
            int(revs),
            int(rgt),
            int(walker),
            "uniform" if uniform else "non-uniform",
        ]
        for alt, revs, rgt, walker, uniform in zip(
            data["altitude_km"],
            data["revolutions_per_day"],
            data["rgt_satellites"],
            data["walker_satellites"],
            data["uniform_coverage"],
        )
    ]
    return format_table(
        ["altitude_km", "revs/day", "RGT sats", "Walker sats", "RGT coverage"], rows
    )


def _run_fig02(quick: bool) -> str:
    data = figures.figure02_rgt_ground_track(step_s=120.0 if quick else 60.0)
    return (
        f"RGT {data['revolutions']}:1 at {data['altitude_km']:.1f} km, "
        f"{len(data['latitude_deg'])} track samples, "
        f"max |latitude| {np.max(np.abs(data['latitude_deg'])):.1f} deg, "
        f"swath half-width {data['swath_half_width_deg']:.2f} deg"
    )


def _run_fig03(quick: bool) -> str:
    data = figures.figure03_population_by_latitude(resolution_deg=1.0 if quick else 0.5)
    series = data["max_density_per_km2"]
    lats = data["latitude_deg"]
    step = max(1, len(lats) // 36)
    return format_series(
        "Max population density per latitude",
        lats[::step],
        series[::step],
        "latitude_deg",
        "people_per_km2",
    )


def _run_fig04(quick: bool) -> str:
    data = figures.figure04_diurnal_percentiles(n_days=7 if quick else 28)
    rows = [
        [float(h), float(p50), float(p95)]
        for h, p50, p95 in zip(
            data["hour_of_day"],
            data["percent_of_median_p50"],
            data["percent_of_median_p95"],
        )
    ]
    return format_table(["hour", "p50 (% of median)", "p95 (% of median)"], rows)


def _run_fig05(quick: bool) -> str:
    data = figures.figure05_demand_snapshots(
        population_resolution_deg=2.0 if quick else 1.0
    )
    lines = []
    for hour in data["hours"]:
        snapshot = data["snapshots"][float(hour)]
        lines.append(
            format_grid_summary(f"Demand snapshot at {hour:04.1f} h UTC", snapshot["demand"])
        )
    return "\n".join(lines)


def _run_fig06(quick: bool) -> str:
    data = figures.figure06_radiation_map(resolution_deg=4.0 if quick else 2.0)
    values = data["electron_flux"]
    lats = data["latitude_deg"]
    lons = data["longitude_deg"]
    row, col = np.unravel_index(int(np.argmax(values)), values.shape)
    lines = [
        format_grid_summary("Electron flux map at 560 km", values),
        f"flux maximum at latitude {lats[row]:.1f} deg, longitude {lons[col]:.1f} deg",
    ]
    band = values.max(axis=1)
    step = max(1, len(lats) // 18)
    lines.append(
        format_series(
            "Max electron flux per latitude band", lats[::step], band[::step],
            "latitude_deg", "flux",
        )
    )
    return "\n".join(lines)


def _run_fig07(quick: bool) -> str:
    inclinations = np.arange(45.0, 101.0, 5.0 if quick else 2.5)
    data = figures.figure07_fluence_vs_inclination(inclinations_deg=inclinations)
    rows = [
        [float(i), float(e), float(p)]
        for i, e, p in zip(
            data["inclination_deg"], data["electron_fluence"], data["proton_fluence"]
        )
    ]
    return format_table(
        ["inclination_deg", "electron fluence (/cm^2/MeV/day)", "proton fluence"], rows
    )


def _run_fig08(quick: bool) -> str:
    data = figures.figure08_demand_grid(
        lat_resolution_deg=4.0 if quick else 2.0,
        population_resolution_deg=2.0 if quick else 1.0,
    )
    return format_grid_summary(
        "Demand on the (latitude, local time) grid (% of peak)",
        data["demand_percent_of_peak"],
    )


def _run_fig09_10(quick: bool) -> str:
    multipliers = (10.0, 100.0) if quick else (10.0, 30.0, 100.0, 300.0, 1000.0)
    data = figures.figure09_figure10_sweep(bandwidth_multipliers=multipliers)
    rows = []
    for index, multiplier in enumerate(data["bandwidth_multiplier"]):
        rows.append(
            [
                float(multiplier),
                int(data["ss_satellites"][index]),
                int(data["walker_satellites"][index]),
                float(data["walker_satellites"][index] / max(data["ss_satellites"][index], 1)),
                float(data["ss_median_electron"][index]),
                float(data["walker_median_electron"][index]),
                float(data["ss_median_proton"][index]),
                float(data["walker_median_proton"][index]),
            ]
        )
    return format_table(
        [
            "multiplier",
            "SS sats",
            "WD sats",
            "WD/SS",
            "SS e-fluence",
            "WD e-fluence",
            "SS p-fluence",
            "WD p-fluence",
        ],
        rows,
    )


def _run_claims(quick: bool) -> str:
    multipliers = (3.0, 10.0) if quick else (3.0, 10.0, 30.0, 100.0)
    data = figures.headline_claims(bandwidth_multipliers=multipliers)
    rows = [
        ["satellite reduction factor (max)", round(data["max_satellite_reduction_factor"], 2)],
        ["electron fluence reduction (max %)", round(data["max_electron_reduction_percent"], 1)],
        ["proton fluence reduction (max %)", round(data["max_proton_reduction_percent"], 1)],
        [
            "supports 'order of magnitude fewer satellites'",
            data["order_of_magnitude_fewer_satellites"],
        ],
    ]
    return format_table(["claim", "measured"], rows)


EXPERIMENTS: dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in [
        Experiment("fig01", "Figure 1: RGT vs Walker satellite counts", _run_fig01),
        Experiment("fig02", "Figure 2: repeat ground track example", _run_fig02),
        Experiment("fig03", "Figure 3: population density by latitude", _run_fig03),
        Experiment("fig04", "Figure 4: diurnal demand percentiles", _run_fig04),
        Experiment("fig05", "Figure 5: spatiotemporal demand snapshots", _run_fig05),
        Experiment("fig06", "Figure 6: electron radiation map", _run_fig06),
        Experiment("fig07", "Figure 7: fluence vs inclination", _run_fig07),
        Experiment("fig08", "Figure 8: latitude/local-time demand grid", _run_fig08),
        Experiment("fig09", "Figures 9 & 10: SS vs WD sweep", _run_fig09_10),
        Experiment("claims", "Headline claims", _run_claims),
    ]
}


def run_experiment(experiment_id: str, quick: bool = False) -> str:
    """Run one experiment by id and return its formatted output."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[experiment_id].runner(quick)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: none)")
    parser.add_argument("--all", action="store_true", help="run every registered experiment")
    parser.add_argument("--quick", action="store_true", help="use coarse/fast settings")
    parser.add_argument("--list", action="store_true", help="list registered experiments")
    args = parser.parse_args(argv)

    if args.list:
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.experiment_id}: {experiment.title}")
        return 0

    selected = list(EXPERIMENTS) if args.all else args.experiments
    if not selected:
        parser.print_help()
        return 1
    # One span per experiment id: the tracer collects every run's duration
    # and the table exporter prints the whole session's breakdown at the end.
    tracer = Tracer(stages=tuple(dict.fromkeys(selected)))
    for experiment_id in selected:
        experiment = EXPERIMENTS[experiment_id]
        print(f"=== {experiment.experiment_id}: {experiment.title} ===")
        with tracer.span(experiment_id) as span:
            print(run_experiment(experiment_id, quick=args.quick))
        print(f"--- completed in {span.seconds:.1f} s ---\n")
    if len(selected) > 1:
        print("=== timing breakdown ===")
        print(get_exporter("table").render(tracer.metrics))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
