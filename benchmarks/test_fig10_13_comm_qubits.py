"""E6 -- Figs. 10-13: mean JCT vs number of communication qubits (5-10).

More communication qubits allow more parallel EPR attempts per round, so the
completion time drops for every policy; CloudQC stays at or near the bottom of
every curve.
"""

from __future__ import annotations

from functools import partial

import pytest

from answer_ledger import check_answer
from shape_checks import check_cloudqc_not_worst
from repro.analysis import format_series, sweep_communication_qubits

COMM_QUBITS = (5, 6, 7, 8, 9, 10)
REPETITIONS = 2

DEFAULT_CIRCUITS = {
    "fig10_qugan_n111": "qugan_n111",
    "fig12_multiplier_n45": "multiplier_n45",
    "fig11_qft_n63": "qft_n63",
}
FULL_CIRCUITS = {
    "fig10_qugan_n111": "qugan_n111",
    "fig11_qft_n160": "qft_n160",
    "fig12_multiplier_n75": "multiplier_n75",
    "fig13_qv_n100": "qv_n100",
}


def jct_series(circuit):
    """Mean JCT per scheduling policy over ``COMM_QUBITS``."""
    return sweep_communication_qubits(
        circuit,
        communication_counts=COMM_QUBITS,
        repetitions=REPETITIONS,
        seed=1,
    )


def answers():
    """This module's paper-answer ledger entries (see answer_ledger)."""
    return {
        f"fig10-13/{figure}": partial(jct_series, circuit)
        for figure, circuit in DEFAULT_CIRCUITS.items()
    }


@pytest.mark.paper_artifact("fig10-13")
@pytest.mark.parametrize("figure,circuit", sorted(DEFAULT_CIRCUITS.items()))
def test_fig10_13_jct_vs_communication_qubits(benchmark, figure, circuit):
    series = benchmark.pedantic(jct_series, args=(circuit,), rounds=1, iterations=1)

    print(f"\n{figure}: mean JCT vs communication qubits ({circuit})")
    print(format_series(series, COMM_QUBITS, x_label="comm_qubits", precision=0))

    # Shape: more communication qubits never hurt much (compare the endpoints),
    # and CloudQC is never the worst policy at any point.
    for name, values in series.items():
        assert values[-1] <= values[0] * 1.10
    for index in range(len(COMM_QUBITS)):
        values = {name: series[name][index] for name in series}
        check_cloudqc_not_worst(
            values, f"{figure} at {COMM_QUBITS[index]} communication qubits"
        )
        assert values["CloudQC"] <= values["Greedy"] * 1.05
    check_answer(f"fig10-13/{figure}", series)
