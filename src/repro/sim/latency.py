"""Operation latency model (Table I of the paper).

All durations are expressed in units of one CX gate time:

=====================  ==========
Operation              Latency
=====================  ==========
Single-qubit gate      ~0.1 CX
CX / CZ gate           1 CX
Measurement            ~5 CX
EPR pair preparation   ~10 CX
=====================  ==========

A remote gate consumes one (or more) EPR generation attempts, a local
two-qubit gate, and a measurement for the classical correction, so its
*expected* latency at success probability ``p`` is
``(attempts needed) * t_ep + t_2q + t_ms`` with geometric attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuits import Gate, GateKind, QuantumCircuit

#: One row per gate: (operands, is two-qubit, latency when executed locally).
GateRow = Tuple[Tuple[int, ...], bool, float]


@dataclass(frozen=True)
class LatencyModel:
    """Durations of the primitive operations, in CX-gate units (Table I)."""

    single_qubit_gate: float = 0.1
    two_qubit_gate: float = 1.0
    measurement: float = 5.0
    epr_preparation: float = 10.0

    def gate_latency(self, gate: Gate) -> float:
        """Latency of a *local* gate."""
        kind = gate.kind
        if kind is GateKind.TWO_QUBIT:
            return self.two_qubit_gate
        if kind is GateKind.MEASUREMENT:
            return self.measurement
        if kind is GateKind.BARRIER:
            return 0.0
        return self.single_qubit_gate

    def gate_table(self, circuit: QuantumCircuit) -> Tuple[GateRow, ...]:
        """``(operands, is_two_qubit, local latency)`` for every gate of ``circuit``.

        Memoized on the circuit, so the local critical path and the
        placement-scoring walk read plain tuples instead of gate objects.
        """
        return circuit.memo(
            ("gate_table", self),
            lambda: tuple(
                (gate.qubits, gate.is_two_qubit, self.gate_latency(gate))
                for gate in circuit.gates
            ),
        )

    def remote_gate_latency(self, epr_attempts: int = 1, hops: int = 1) -> float:
        """Latency of a remote two-qubit gate.

        ``epr_attempts`` rounds of EPR preparation (the attempts of the final,
        successful round are concurrent, so each round costs one preparation
        time), followed by the local gate and the measurement used for the
        teleported-gate correction.  Multi-hop links pay one preparation per
        hop in series (entanglement swapping).
        """
        if epr_attempts < 1:
            raise ValueError("a remote gate needs at least one EPR attempt round")
        if hops < 1:
            raise ValueError("a remote gate spans at least one hop")
        return (
            epr_attempts * hops * self.epr_preparation
            + self.two_qubit_gate
            + self.measurement
        )

    def expected_remote_gate_latency(
        self, success_probability: float, parallel_attempts: int = 1, hops: int = 1
    ) -> float:
        """Expected remote-gate latency when each round fires ``parallel_attempts``.

        A round succeeds with probability ``1 - (1 - p)^parallel_attempts``;
        the number of rounds is geometric, so its expectation is the inverse.
        """
        if not 0.0 < success_probability <= 1.0:
            raise ValueError("success probability must lie in (0, 1]")
        if parallel_attempts < 1:
            raise ValueError("at least one parallel attempt per round is required")
        round_success = 1.0 - (1.0 - success_probability) ** parallel_attempts
        expected_rounds = 1.0 / round_success
        return self.remote_gate_latency(hops=hops) + (
            expected_rounds - 1.0
        ) * hops * self.epr_preparation


#: Default latency model with exactly the Table I constants.
DEFAULT_LATENCY = LatencyModel()


def local_execution_time(
    circuit: QuantumCircuit, latency: LatencyModel = DEFAULT_LATENCY
) -> float:
    """Critical-path latency of the circuit if every gate were local.

    Memoized on the circuit per latency model.
    """

    def critical_path() -> float:
        ready = [0.0] * circuit.num_qubits
        for qubits, _, duration in latency.gate_table(circuit):
            finish = max(ready[q] for q in qubits) + duration
            for q in qubits:
                ready[q] = finish
        return max(ready, default=0.0)

    return circuit.memo(("local_execution_time", latency), critical_path)
