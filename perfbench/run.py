"""The repository's benchmark: one command, every metric, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``paper``     -- ``run_experiment(id)`` for every registered experiment at
                   full settings, the ``experiments --all`` pipeline;
* ``net-sweep`` -- a 1,296-satellite faulted and steered sweep, 48 steps;
* ``net-flows`` -- a 360-satellite sweep with 100k flows per step, 12 steps.

Each sample runs in a fresh interpreter (``sample.py``), one at a time, and
samples are taken while the next one is expected to end within
``--seconds``.  With ``--trace 0`` the run reports the end-to-end
metrics: medians of ``setup_s``, ``wall_s`` and ``peak_rss_mb`` over the
samples (times in reference seconds, see ``speed.py``), and ``ok_ratio``, the share of operations that neither raised nor
broke an invariant.  With ``--trace 1`` it alternates untraced and traced
samples and reports the per-layer metrics (medians over the traced
samples), plus ``trace_overhead_frac``; it also requires the traced outputs
to match the untraced ones bit for bit.

Before the result, the run prints one ``manifest`` JSON line (commit, host,
library versions, BLAS threads, seed, a hash of the workload parameters,
the output digest and, for ``paper``, the fig09 and claims tables) and one
``samples`` JSON line.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The run exits with status 2, printing no result, when the repository's
sources are missing or a sample cannot run at all.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import sample  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class SampleError(RuntimeError):
    """A sample process failed to produce a record."""


def run_sample(workload: str, seed: int, trace: int, smoke: bool) -> dict:
    """Launch one sample in a fresh interpreter and return its record."""
    command = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--spawned", repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SampleError(
            f"{workload} sample exited with status {completed.returncode}"
        )
    return json.loads(lines[-1])


def take_samples(args) -> tuple[list[dict], list[dict]]:
    """Untraced (and traced) samples, taken while the next fits in ``--seconds``.

    A round is one untraced sample, plus one traced sample with ``--trace 1``.
    Another round starts only if the median round so far would still end
    within ``--seconds``, so a run's length stays near ``--seconds`` however
    fast the host is; the first round always runs.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    begin = time.monotonic()
    while not rounds or time.monotonic() - begin + statistics.median(rounds) <= args.seconds:
        round_begin = time.monotonic()
        plain.append(run_sample(args.workload, args.seed, 0, args.smoke))
        if args.trace:
            traced.append(run_sample(args.workload, args.seed, 1, args.smoke))
        rounds.append(time.monotonic() - round_begin)
    return plain, traced


def _git(*argv: str) -> str | None:
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not a git work tree.
        completed = subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def manifest(args, plain: list[dict]) -> dict:
    """Provenance of the run: code, host, libraries, inputs and outputs."""
    import networkx
    import numpy
    import scipy

    if args.workload == "paper":
        parameters = {"experiments": list(layers.EXPERIMENT_IDS), "quick": args.smoke}
    else:
        size = sample.NETWORK_SIZES[args.workload]["smoke" if args.smoke else "full"]
        parameters = {"size": size, "warmup": sample.WARMUP_SIZE,
                      "scenarios": [repr(s) for s in
                                    sample.network_scenarios(args.workload, args.seed)]}
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    record = {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "openblas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "params_sha256": hashlib.sha256(
            json.dumps(parameters, sort_keys=True).encode()
        ).hexdigest(),
        "output_digest": plain[0]["digest"],
    }
    if args.workload == "paper":
        record["tables"] = plain[0]["tables"]
    else:
        record["delivery_ratio"] = plain[0]["delivery_ratio"]
    return record


def summarise(args, plain: list[dict], traced: list[dict]) -> dict:
    """The result object: correctness plus the requested metric set."""
    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    digests = {r["digest"] for r in records}
    # Same seed, same outputs: every sample, traced or not, must agree.
    correct = failed == 0 and len(digests) == 1
    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain)
            - 1.0
        )
        units = layers.per_layer_units()
    else:
        values = {
            name: statistics.median(r[name] for r in plain)
            for name in ("setup_s", "wall_s", "peak_rss_mb")
        }
        values["ok_ratio"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sample.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = take_samples(args)
    except (SampleError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    for record in plain + traced:
        if record["failures"]:
            print(f"perfbench: failures: {record['failures'][:5]}", file=sys.stderr)
    print(json.dumps({"manifest": manifest(args, plain)}))
    print(json.dumps({"samples": [
        {key: r[key] for key in ("setup_s", "wall_s", "raw_setup_s", "raw_wall_s",
                                 "slowness", "peak_rss_mb", "attempted", "failed")}
        | {"traced": "layers" in r}
        for r in plain + traced
    ]}))
    print(json.dumps(summarise(args, plain, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
