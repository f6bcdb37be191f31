"""Placement scoring: estimated execution time, communication cost, and S.

Algorithm 1 evaluates every candidate placement with
``S = alpha * (1 / T) + beta * (1 / C)`` where ``T`` is the estimated running
time of the circuit under that placement and ``C`` is the communication cost.
The time estimator walks the dependency DAG layer by layer, charging Table I
latencies for local gates and the *expected* EPR cost for remote gates.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..sim.latency import DEFAULT_LATENCY, LatencyModel


def estimate_execution_time(
    circuit: QuantumCircuit,
    mapping: Mapping[int, int],
    cloud: QuantumCloud,
    latency: LatencyModel = DEFAULT_LATENCY,
    epr_success_probability: Optional[float] = None,
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
    ready = [0.0] * circuit.num_qubits
    for qubits, two_qubit, duration in latency.gate_table(circuit):
        if len(qubits) == 1:  # never of two-qubit kind (checked by Gate)
            ready[qubits[0]] += duration
            continue
        if two_qubit:
            qpu_a = mapping[qubits[0]]
            qpu_b = mapping[qubits[1]]
            if qpu_a != qpu_b:
                hops = max(distances[qpu_a][qpu_b], 1)
                duration = remote_latency.get(hops)
                if duration is None:
                    duration = remote_latency[hops] = latency.expected_remote_gate_latency(
                        probability, parallel_attempts=1, hops=hops
                    )
        if len(qubits) == 2:
            a, b = qubits
            start = ready[a]
            if ready[b] > start:  # max() of the two: the first on ties
                start = ready[b]
            ready[a] = ready[b] = start + duration
        else:
            finish = max(ready[q] for q in qubits) + duration
            for q in qubits:
                ready[q] = finish
    return max(ready, default=0.0)


def communication_cost(
    circuit: QuantumCircuit, mapping: Mapping[int, int], cloud: QuantumCloud
) -> float:
    """Eq. 1 for a raw mapping (without building a Placement object)."""
    distances = cloud.topology.distance_table()
    cost = 0
    for (a, b), count in circuit.interaction_counts():
        qpu_a, qpu_b = mapping[a], mapping[b]
        if qpu_a != qpu_b:
            cost += count * distances[qpu_a][qpu_b]
    # Integer hop counts add exactly in any order, so summing per qubit pair
    # gives the same float as the per-gate sum of Eq. 1.
    return float(cost)


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
