"""E7 -- Figs. 18-21: mean JCT vs EPR success probability (0.1-0.5).

Raising the per-attempt EPR success probability shortens every policy's
completion time; CloudQC stays at or near the bottom of every curve (the paper
notes one crossover point at probability 0.1 for qugan_n111).
"""

from __future__ import annotations

from functools import partial

import pytest

from answer_ledger import check_answer
from shape_checks import check_cloudqc_not_worst
from repro.analysis import format_series, sweep_epr_probability

PROBABILITIES = (0.1, 0.2, 0.3, 0.4, 0.5)
REPETITIONS = 2

DEFAULT_CIRCUITS = {
    "fig18_qugan_n111": "qugan_n111",
    "fig20_multiplier_n45": "multiplier_n45",
    "fig19_qft_n63": "qft_n63",
}
FULL_CIRCUITS = {
    "fig18_qugan_n111": "qugan_n111",
    "fig19_qft_n160": "qft_n160",
    "fig20_multiplier_n75": "multiplier_n75",
    "fig21_qv_n100": "qv_n100",
}


def jct_series(circuit):
    """Mean JCT per scheduling policy over ``PROBABILITIES``."""
    return sweep_epr_probability(
        circuit, probabilities=PROBABILITIES, repetitions=REPETITIONS, seed=1
    )


def answers():
    """This module's paper-answer ledger entries (see answer_ledger)."""
    return {
        f"fig18-21/{figure}": partial(jct_series, circuit)
        for figure, circuit in DEFAULT_CIRCUITS.items()
    }


@pytest.mark.paper_artifact("fig18-21")
@pytest.mark.parametrize("figure,circuit", sorted(DEFAULT_CIRCUITS.items()))
def test_fig18_21_jct_vs_epr_probability(benchmark, figure, circuit):
    series = benchmark.pedantic(jct_series, args=(circuit,), rounds=1, iterations=1)

    print(f"\n{figure}: mean JCT vs EPR success probability ({circuit})")
    print(format_series(series, PROBABILITIES, x_label="p", precision=0))

    # Shape: higher success probability means shorter completion times.
    for name, values in series.items():
        assert values[-1] < values[0]
    # CloudQC is never the worst policy at probabilities >= 0.2 (the paper
    # reports a single exception at p = 0.1).
    for index, probability in enumerate(PROBABILITIES):
        if probability < 0.2:
            continue
        values = {name: series[name][index] for name in series}
        check_cloudqc_not_worst(values, f"{figure} at p = {probability}")
    check_answer(f"fig18-21/{figure}", series)
