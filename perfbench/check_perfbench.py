"""Tests of the benchmark itself (not of the program it measures).

* ``BENCHMARK.json`` names exactly the metrics the code emits, with the
  same units;
* a smoke-size run of each workload, through the one command, prints every
  end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
  by name with its unit, and its correctness checks pass;
* the trace hooks and the speed probe do not perturb results, and both
  uninstall cleanly;
* span arithmetic (self time, busy time, unattributed time) and the
  speed probe's reference-seconds arithmetic are right;
* without the repository's sources the command fails without a result.

Run with ``python3 -m pytest perfbench/check_perfbench.py`` (the file name keeps
it out of the default test collection: it launches the benchmark, ~30 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
import speed  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # The command as BENCHMARK.json gives it, run by this test's interpreter.
    program, *arguments = _spec()["command"]
    assert program == "python3"
    return subprocess.run(
        [sys.executable, *arguments]
        + ["--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_emitted_metric_names():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(sample.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()


@pytest.mark.parametrize("workload", sample.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric(workload, trace):
    completed = _command(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    manifest = json.loads(lines[0])["manifest"]
    assert manifest["workload"] == workload and manifest["seed"] == 7
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert result["metrics"]["wall_s"]["value"] > 0


def _network_digest(workload: str) -> str:
    run_sweep = sample.build_network(
        workload, sample.NETWORK_SIZES[workload]["smoke"], seed=3
    )
    return sample._digest(
        f"{name}|{step!r}" for name, result in run_sweep().items() for step in result.steps
    )


@pytest.mark.parametrize("workload", ("net-sweep", "net-flows"))
def test_hooks_do_not_perturb_network_results(workload):
    plain = _network_digest(workload)
    recorder = layers.SpanRecorder()
    with recorder.installed():
        traced = _network_digest(workload)
    assert traced == plain
    assert recorder.counts["network.backends.searches"] > 0
    assert recorder.counts["network.flows.flows_routed"] > 0
    assert any(span[0] == "network.topology" for span in recorder.spans)


def test_speed_probe_does_not_perturb_results():
    import signal

    plain = _network_digest("net-sweep")
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        # A smoke sweep is shorter than the probe interval: repeat it until
        # the timer has fired inside a few of them.
        for _ in range(100):
            assert _network_digest("net-sweep") == plain
            if len(probe.marks) > 3:
                break
    finally:
        probe.stop()
    assert len(probe.marks) > 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_seconds_arithmetic():
    probe = speed.SpeedProbe()
    probe.marks = [(0.0, 0.1, 1.0), (1.0, 1.1, 2.0), (2.0, 2.1, 2.0)]
    # 0.5-1.0 paced by the mean of the probes around it, 1.1-2.0 and
    # 2.1-3.0 by slowness 2; the probes' own time is left out.
    assert probe.reference_seconds(0.5, 3.0) == pytest.approx(0.5 / 1.5 + 0.9 / 2 + 0.9 / 2)
    # No probe inside the window: paced by the last one before it.
    assert probe.reference_seconds(0.2, 0.8) == pytest.approx(0.6)
    assert probe.median_slowness(0.5, 3.0) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        speed.SpeedProbe().reference_seconds(0.0, 1.0)


def test_hooks_do_not_perturb_paper_results():
    from repro.analysis.experiments import run_experiment

    ids = ("fig01", "fig07")
    plain = [run_experiment(i, quick=True) for i in ids]
    recorder = layers.SpanRecorder()
    with recorder.installed():
        traced = [run_experiment(i, quick=True) for i in ids]
    assert traced == plain
    assert recorder.counts["coverage.walker.searches"] > 0
    assert recorder.counts["radiation.exposure.orbits"] > 0


def test_hooks_uninstall_restores_originals():
    from repro.coverage import walker
    from repro.network.alloc_arrays import ARRAY_SOLVERS
    from repro.network.topology import ConstellationTopology

    before = (walker.coverage_fraction, dict(ARRAY_SOLVERS))
    with layers.SpanRecorder().installed():
        assert walker.coverage_fraction is not before[0]
        assert "snapshot_sequence" in ConstellationTopology.__dict__
    assert (walker.coverage_fraction, dict(ARRAY_SOLVERS)) == before
    # An inherited method is shadowed while installed and unshadowed after.
    assert "snapshot_sequence" not in ConstellationTopology.__dict__


def test_span_arithmetic():
    recorder = layers.SpanRecorder()
    recorder.spans = [
        (layers.SIMULATION_LAYER, 0.0, 10.0, -1),
        ("network.flows", 1.0, 5.0, 0),
        ("network.backends", 2.0, 4.0, 1),
        ("network.flows", 6.0, 7.0, 0),
    ]
    recorder.counts["network.backends.searches"] = 4
    values = layers.layer_metrics(recorder, wall_s=12.0, cells=8)
    assert values["network.flows.busy_s"] == pytest.approx(3.0)
    assert values["network.backends.busy_s"] == pytest.approx(2.0)
    assert values["network.simulation.self_s"] == pytest.approx(5.0)
    assert values["unattributed_s"] == pytest.approx(2.0)
    assert values["network.backends.share_ratio"] == pytest.approx(2.0)

    recorder = layers.SpanRecorder()
    recorder.spans = [
        ("analysis.experiments.fig01", 0.0, 4.0, -1),
        ("coverage.walker", 1.0, 3.0, 0),
    ]
    values = layers.layer_metrics(recorder, wall_s=5.0)
    assert values["analysis.experiments.fig01.busy_s"] == pytest.approx(4.0)
    assert values["analysis.experiments.self_s"] == pytest.approx(2.0)
    assert values["coverage.walker.busy_s"] == pytest.approx(2.0)
    assert values["unattributed_s"] == pytest.approx(1.0)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _command("paper", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
