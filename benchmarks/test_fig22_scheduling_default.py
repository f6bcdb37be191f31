"""E5 -- Fig. 22: network scheduling policies under the default setting.

Each circuit is placed once with CloudQC placement and then executed with the
four allocation policies (CloudQC, Average, Random, Greedy).  The figure plots
completion time relative to CloudQC; the expected shape is that CloudQC gives
the lowest JCT on circuits with deep remote DAGs (QFT, multiplier, QV, adders)
and roughly ties on shallow ones (KNN, QuGAN), while Greedy is the worst.
"""

from __future__ import annotations

import pytest

from answer_ledger import check_answer
from shape_checks import check_cloudqc_not_worst
from repro.analysis import (
    default_cloud,
    format_table,
    scheduling_comparison,
)
from repro.multitenant import relative_to_baseline

#: Circuits of Fig. 22 covered by the default run.
DEFAULT_CIRCUITS = [
    "knn_n129",
    "qugan_n111",
    "qft_n63",
    "vqe_uccsd_n28",
    "adder_n64",
    "adder_n118",
    "multiplier_n45",
]
#: The full Fig. 22 set (adds the largest circuits; several extra minutes).
FULL_CIRCUITS = DEFAULT_CIRCUITS + ["qft_n160", "qv_n100", "multiplier_n75"]

REPETITIONS = 2
SCHEDULERS = ["CloudQC", "Average", "Random", "Greedy"]


def fig22():
    """Mean JCT per circuit and scheduling policy (cloud seed 7)."""
    return scheduling_comparison(
        DEFAULT_CIRCUITS, cloud=default_cloud(seed=7), repetitions=REPETITIONS,
        seed=1,
    )


def answers():
    """This module's paper-answer ledger entries (see answer_ledger)."""
    return {"fig22": fig22}


@pytest.mark.paper_artifact("fig22")
def test_fig22_scheduling_policies_default_setting(benchmark):
    table = benchmark.pedantic(fig22, rounds=1, iterations=1)

    relative = {
        name: relative_to_baseline(row, "CloudQC") for name, row in table.items()
    }
    print("\nFig. 22: mean JCT (absolute, CX units)")
    print(format_table(table, SCHEDULERS, precision=0))
    print("Fig. 22: JCT relative to CloudQC (paper plots this ratio)")
    print(format_table(relative, SCHEDULERS, precision=2))

    deep_dag_circuits = ["qft_n63", "adder_n64", "adder_n118", "multiplier_n45"]
    for name in deep_dag_circuits:
        row = table[name]
        # CloudQC at least ties the other policies (within 10%) on circuits
        # with deep remote DAGs.
        assert row["CloudQC"] <= min(row.values()) * 1.10
    # On the wide-DAG circuits (many concurrent remote gates competing for
    # communication qubits) CloudQC strictly beats Greedy; on purely serial
    # remote DAGs (the adders) all policies coincide.
    for name in ("qft_n63", "multiplier_n45"):
        assert table[name]["CloudQC"] < table[name]["Greedy"]
    # Across all circuits CloudQC is never the worst policy.
    for name, row in table.items():
        check_cloudqc_not_worst(row, f"fig22/{name}")
    check_answer("fig22", table)
