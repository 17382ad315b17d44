"""Shared configuration for the benchmark harness.

Each benchmark regenerates the data behind one figure of the paper and prints
the series it produces, so `pytest benchmarks/ --benchmark-only` doubles as
a reproduction run next to `python -m repro.analysis.experiments --all`.
Heavy sweeps run with a
single round to keep the full harness in the minutes range.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help=(
            "shrink benchmark problem sizes and relax speedup floors so the "
            "harness doubles as a fast CI correctness check"
        ),
    )
    parser.addoption(
        "--backend",
        action="store",
        default="networkx",
        choices=("networkx", "csgraph"),
        help=(
            "routing backend the simulation benchmarks drive the sweep "
            "engine with (see repro.network.backends.BACKENDS)"
        ),
    )


@pytest.fixture()
def smoke(request) -> bool:
    """Whether the harness runs in CI smoke mode (small sizes, lax floors)."""
    return request.config.getoption("--smoke")


@pytest.fixture()
def backend(request) -> str:
    """Routing-backend name selected on the command line (--backend)."""
    return request.config.getoption("--backend")


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture()
def once():
    """Fixture exposing the single-round benchmark helper."""
    return run_once
