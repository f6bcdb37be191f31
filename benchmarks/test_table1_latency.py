"""E1 -- Table I: operation latencies.

The latency model is a set of constants; the benchmark verifies the values and
measures the cost of evaluating a remote-gate latency (the hot path of the
execution simulator).
"""

from __future__ import annotations

import pytest

from answer_ledger import check_answer
from repro.circuits import Gate
from repro.sim import DEFAULT_LATENCY

PAPER_TABLE1 = {
    "single_qubit_gate": 0.1,
    "two_qubit_gate": 1.0,
    "measurement": 5.0,
    "epr_preparation": 10.0,
}


def remote_latency():
    return DEFAULT_LATENCY.expected_remote_gate_latency(0.3, parallel_attempts=2)


def table1():
    """Table I as the latency model holds it, plus one remote-gate latency."""
    row = {name: getattr(DEFAULT_LATENCY, name) for name in PAPER_TABLE1}
    return {**row, "expected_remote_gate_latency": remote_latency()}


def answers():
    """This module's paper-answer ledger entries (see answer_ledger)."""
    return {"table1": table1}


@pytest.mark.paper_artifact("table1")
def test_table1_operation_latencies(benchmark):
    gate = Gate("cx", (0, 1))

    value = benchmark(remote_latency)
    assert value > DEFAULT_LATENCY.gate_latency(gate)

    print("\nTable I (latency in CX units): paper vs model")
    for name, paper_value in PAPER_TABLE1.items():
        measured = getattr(DEFAULT_LATENCY, name)
        print(f"  {name:<20} paper={paper_value:<6} model={measured}")
        assert measured == pytest.approx(paper_value)
    check_answer("table1", table1())
