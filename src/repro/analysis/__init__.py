"""Experiment harness: per-figure data generation, formatting and a CLI runner.

Also hosts the grid analysis layer: :func:`~repro.analysis.grid.load_grid`
reads the JSON documents persisted by
:func:`repro.network.simulation.run_grid` back into
:class:`~repro.network.simulation.SimulationResult` cells and numpy metric
surfaces.
"""

from .grid import GridDocument, load_grid
from .report import format_grid_summary, format_series, format_table, scientific

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "GridDocument",
    "load_grid",
    "format_grid_summary",
    "format_series",
    "format_table",
    "scientific",
]

# ``.experiments`` is loaded on first use rather than here, so that running it
# as ``python -m repro.analysis.experiments`` does not find it already
# imported by its own package (runpy warns about that).
_EXPERIMENT_EXPORTS = frozenset({"EXPERIMENTS", "Experiment", "run_experiment"})


def __getattr__(name: str) -> object:
    if name in _EXPERIMENT_EXPORTS:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
