"""Headline claims of the abstract: satellite-count and radiation reductions."""

from __future__ import annotations

from repro.analysis.figures import headline_claims
from repro.analysis.report import format_table


def test_headline_claims(benchmark, once):
    data = once(benchmark, headline_claims, bandwidth_multipliers=(3.0, 10.0, 30.0))

    rows = [
        ["max satellite reduction factor (WD/SS)", round(data["max_satellite_reduction_factor"], 2)],
        ["max electron fluence reduction (%)", round(data["max_electron_reduction_percent"], 1)],
        ["max proton fluence reduction (%)", round(data["max_proton_reduction_percent"], 1)],
        ["paper claim: order of magnitude fewer satellites", "up to ~10x"],
        ["paper claim: radiation reduction", "~23%"],
    ]
    print("\nHeadline claims (measured vs paper)")
    print(format_table(["quantity", "value"], rows))

    # Directional reproduction: SS wins on both axes.  The measured satellite
    # reduction factor (~2-3x with this Walker baseline model) is smaller than
    # the paper's "up to an order of magnitude"; the claims table of
    # ``python -m repro.analysis.experiments --all`` reports the full sweep.
    assert data["max_satellite_reduction_factor"] > 1.5
    assert data["max_electron_reduction_percent"] > 10.0
    assert data["max_proton_reduction_percent"] > 10.0
