"""E4 -- Figs. 6-9: communication overhead vs computing qubits per QPU.

Sweeps the per-QPU computing-qubit count (10..50) for the four representative
circuits the paper uses (qugan_n111, qft_n160, multiplier_n75, qv_n100; the
default run uses the two mid-sized ones plus qft_n63 as a stand-in for the very
large pair) and reports the communication overhead of every placement
algorithm.  Expected shape: CloudQC lowest, CloudQC-BFS second, overhead
decreasing as QPUs get larger.
"""

from __future__ import annotations

import math
from functools import partial

import pytest

from answer_ledger import check_answer
from shape_checks import check_cloudqc_not_worst
from repro.analysis import (
    default_placement_algorithms,
    format_series,
    sweep_computing_qubits,
)

QUBIT_COUNTS = (10, 20, 30, 40, 50)

#: Default circuits: one per figure, sized to finish quickly.
DEFAULT_CIRCUITS = {
    "fig6_qugan_n111": "qugan_n111",
    "fig8_multiplier_n45": "multiplier_n45",
    "fig7_qft_n63": "qft_n63",
}
#: The paper's exact figure set (slower: qft_n160 / multiplier_n75 / qv_n100).
FULL_CIRCUITS = {
    "fig6_qugan_n111": "qugan_n111",
    "fig7_qft_n160": "qft_n160",
    "fig8_multiplier_n75": "multiplier_n75",
    "fig9_qv_n100": "qv_n100",
}


def overhead_series(circuit):
    """Communication overhead per algorithm over ``QUBIT_COUNTS``."""
    return sweep_computing_qubits(
        circuit,
        qubit_counts=QUBIT_COUNTS,
        algorithms=default_placement_algorithms(fast=True),
        seed=1,
    )


def answers():
    """This module's paper-answer ledger entries (see answer_ledger)."""
    return {
        f"fig6-9/{figure}": partial(overhead_series, circuit)
        for figure, circuit in DEFAULT_CIRCUITS.items()
    }


@pytest.mark.paper_artifact("fig6-9")
@pytest.mark.parametrize("figure,circuit", sorted(DEFAULT_CIRCUITS.items()))
def test_fig6_9_overhead_vs_computing_qubits(benchmark, figure, circuit):
    series = benchmark.pedantic(
        overhead_series, args=(circuit,), rounds=1, iterations=1
    )

    print(f"\n{figure}: communication overhead vs computing qubits ({circuit})")
    print(format_series(series, QUBIT_COUNTS, x_label="qubits", precision=0))

    feasible = [
        i for i, count in enumerate(QUBIT_COUNTS)
        if not math.isnan(series["CloudQC"][i])
    ]
    assert feasible, "at least one cloud size must fit the circuit"
    for index in feasible:
        values = {name: series[name][index] for name in series}
        # CloudQC is never the worst and beats Random on every feasible point.
        assert values["CloudQC"] <= values["Random"]
        check_cloudqc_not_worst(
            values, f"{figure} at {QUBIT_COUNTS[index]} qubits per QPU"
        )
    # Overhead should not grow when QPUs get bigger (weak monotonicity check
    # on the endpoints of the feasible range).
    first, last = feasible[0], feasible[-1]
    assert series["CloudQC"][last] <= series["CloudQC"][first] * 1.25
    check_answer(f"fig6-9/{figure}", series)
