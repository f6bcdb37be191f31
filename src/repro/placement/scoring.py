"""Placement scoring: estimated execution time, communication cost, and S.

Algorithm 1 evaluates every candidate placement with
``S = alpha * (1 / T) + beta * (1 / C)`` where ``T`` is the estimated running
time of the circuit under that placement and ``C`` is the communication cost.
The time estimator walks the dependency DAG layer by layer, charging Table I
latencies for local gates and the *expected* EPR cost for remote gates.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..circuits import CircuitDAG, GateKind, QuantumCircuit
from ..cloud import QuantumCloud
from ..sim.latency import DEFAULT_LATENCY, LatencyModel


def estimate_execution_time(
    circuit: QuantumCircuit,
    mapping: Mapping[int, int],
    cloud: QuantumCloud,
    latency: LatencyModel = DEFAULT_LATENCY,
    epr_success_probability: Optional[float] = None,
    dag: Optional[CircuitDAG] = None,
) -> float:
    """Estimated makespan of ``circuit`` under ``mapping`` (critical-path model).

    Each qubit carries a ready time; a gate starts when all its operands are
    ready and finishes after its latency.  Remote two-qubit gates pay the
    expected EPR generation latency for the shortest path between their QPUs.
    The result is the maximum qubit ready time -- a lower bound that ignores
    communication-qubit contention (the network scheduler refines it).
    """
    probability = (
        cloud.epr_success_probability
        if epr_success_probability is None
        else epr_success_probability
    )
    distances = cloud.topology.distance_table()
    # Expected remote-gate latency per hop count (a pure function of it).
    remote_latency: Dict[int, float] = {}
    ready: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
    for gate in circuit:
        qubits = gate.qubits
        if len(qubits) == 2:
            start, other = ready[qubits[0]], ready[qubits[1]]
            if other > start:  # max() of the two: the first on ties
                start = other
        else:
            start = max(ready[q] for q in qubits)
        if gate.kind is GateKind.TWO_QUBIT:
            qpu_a = mapping[qubits[0]]
            qpu_b = mapping[qubits[1]]
            if qpu_a == qpu_b:
                duration = latency.two_qubit_gate
            else:
                hops = max(distances[qpu_a][qpu_b], 1)
                duration = remote_latency.get(hops)
                if duration is None:
                    duration = remote_latency[hops] = latency.expected_remote_gate_latency(
                        probability, parallel_attempts=1, hops=hops
                    )
        else:
            duration = latency.gate_latency(gate)
        finish = start + duration
        for q in qubits:
            ready[q] = finish
    return max(ready.values(), default=0.0)


def communication_cost(
    circuit: QuantumCircuit, mapping: Mapping[int, int], cloud: QuantumCloud
) -> float:
    """Eq. 1 for a raw mapping (without building a Placement object)."""
    distances = cloud.topology.distance_table()
    cost = 0.0
    for gate in circuit:
        if gate.is_two_qubit:
            qpu_a, qpu_b = mapping[gate.qubits[0]], mapping[gate.qubits[1]]
            if qpu_a != qpu_b:
                cost += distances[qpu_a][qpu_b]
    return cost


def placement_score(
    estimated_time: float,
    cost: float,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> float:
    """S = alpha / T + beta / C; degenerate zero values are treated as "free"."""
    time_term = alpha / estimated_time if estimated_time > 0 else alpha
    cost_term = beta / cost if cost > 0 else beta
    return time_term + cost_term


def score_mapping(
    circuit: QuantumCircuit,
    mapping: Mapping[int, int],
    cloud: QuantumCloud,
    alpha: float = 1.0,
    beta: float = 1.0,
    latency: LatencyModel = DEFAULT_LATENCY,
) -> Dict[str, float]:
    """Convenience: compute time, cost and score of a mapping in one call."""
    estimated_time = estimate_execution_time(circuit, mapping, cloud, latency=latency)
    cost = communication_cost(circuit, mapping, cloud)
    return {
        "estimated_time": estimated_time,
        "communication_cost": cost,
        "score": placement_score(estimated_time, cost, alpha=alpha, beta=beta),
    }
