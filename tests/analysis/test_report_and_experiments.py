"""Tests of the report formatting and the experiment registry/CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.experiments import EXPERIMENTS, main, run_experiment
from repro.analysis.report import format_grid_summary, format_series, format_table, scientific


class TestReport:
    def test_scientific(self):
        assert scientific(0.0) == "0"
        assert scientific(1234.5, digits=2) == "1.23e+03"

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [30, 4000000.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_format_table_empty(self):
        assert format_table(["x", "y"], []) == "x | y"

    def test_format_series(self):
        text = format_series("demo", np.array([1.0, 2.0]), np.array([3.0, 4.0]), "x", "y")
        assert text.startswith("demo")
        assert "3.00" in text

    def test_format_grid_summary(self):
        summary = format_grid_summary("grid", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert "shape=(2, 2)" in summary
        assert "max=4" in summary


class TestExperimentRegistry:
    def test_all_figures_registered(self):
        expected = {"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "claims"}
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_quick_fig02(self):
        output = run_experiment("fig02", quick=True)
        assert "RGT" in output
        assert "swath" in output

    def test_quick_fig03(self):
        output = run_experiment("fig03", quick=True)
        assert "people_per_km2" in output

    def test_quick_fig08(self):
        output = run_experiment("fig08", quick=True)
        assert "latitude" in output.lower() or "grid" in output.lower()

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "fig01" in captured.out

    def test_cli_no_args_shows_help(self, capsys):
        assert main([]) == 1

    def test_cli_runs_selected(self, capsys):
        assert main(["fig02", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "completed in" in captured.out

    def test_module_entry_point_runs_without_runpy_warning(self):
        # The package must not import ``.experiments`` eagerly, or ``-m``
        # warns that the module is already in ``sys.modules``.
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.analysis.experiments",
             "--help"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr

    def test_package_exports_experiment_registry_lazily(self):
        import repro.analysis as analysis

        assert analysis.run_experiment is run_experiment
        assert analysis.EXPERIMENTS is EXPERIMENTS
        with pytest.raises(AttributeError):
            analysis.no_such_export  # noqa: B018
