"""Placement result object, cost model, and the algorithm interface.

A *placement* maps every logical qubit of a circuit to a QPU.  Its quality is
measured by the paper's objectives:

* communication cost ``sum_ij D_ij * C_{pi(i) pi(j)}`` (Eq. 1),
* number of remote operations (two-qubit gates crossing QPUs, Table III),
* per-QPU remote-operation load ``R(V_j)`` (Eq. 7) used by constraint Eq. 6,
* leftover computing qubits ``sum_i Rem(V_i)`` (Eq. 2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..circuits import InteractionGraph, QuantumCircuit
from ..cloud import QuantumCloud

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext


@dataclass
class Placement:
    """A qubit-to-QPU assignment for one circuit."""

    circuit: QuantumCircuit
    mapping: Dict[int, int]
    algorithm: str = "unknown"
    score: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = set(range(self.circuit.num_qubits)) - set(self.mapping)
        if missing:
            raise ValueError(f"placement is missing qubits {sorted(missing)}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def qpu_of(self, qubit: int) -> int:
        return self.mapping[qubit]

    def qpus_used(self) -> List[int]:
        # detlint: ignore[DET003] QPU ids are distinct ints; sorted() output is canonical regardless of set order
        return sorted(set(self.mapping.values()))

    @property
    def num_qpus_used(self) -> int:
        return len(set(self.mapping.values()))

    def qubits_per_qpu(self) -> Dict[int, int]:
        usage: Dict[int, int] = {}
        for qpu in self.mapping.values():
            usage[qpu] = usage.get(qpu, 0) + 1
        return usage

    def qubits_on(self, qpu_id: int) -> List[int]:
        return sorted(q for q, p in self.mapping.items() if p == qpu_id)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def remote_gates(self) -> List[Tuple[int, Tuple[int, int]]]:
        """(gate index, (qpu_a, qpu_b)) for every two-qubit gate crossing QPUs."""
        remote = []
        for index, gate in enumerate(self.circuit.gates):
            if not gate.is_two_qubit:
                continue
            a, b = gate.qubits[0], gate.qubits[1]
            qpu_a, qpu_b = self.mapping[a], self.mapping[b]
            if qpu_a != qpu_b:
                remote.append((index, (qpu_a, qpu_b)))
        return remote

    def num_remote_operations(self) -> int:
        """Number of two-qubit gates whose operands sit on different QPUs."""
        return len(self.remote_gates())

    def communication_cost(self, cloud: QuantumCloud) -> float:
        """Eq. 1: sum over two-qubit gates of the QPU-pair path length."""
        cost = 0.0
        for _, (qpu_a, qpu_b) in self.remote_gates():
            cost += cloud.distance(qpu_a, qpu_b)
        return cost

    def remote_load(self, cloud: QuantumCloud) -> Dict[int, int]:
        """R(V_j) of Eq. 7: remote operations touching each QPU."""
        load = {qpu_id: 0 for qpu_id in cloud.qpu_ids}
        for _, (qpu_a, qpu_b) in self.remote_gates():
            load[qpu_a] += 1
            load[qpu_b] += 1
        return load

    def respects_capacity(self, cloud: QuantumCloud) -> bool:
        """Constraint Eq. 3: per-QPU demand within available computing qubits."""
        return cloud.can_fit(self.qubits_per_qpu())

    def respects_remote_threshold(self, cloud: QuantumCloud, epsilon: float) -> bool:
        """Constraint Eq. 6: no QPU handles more than ``epsilon`` remote ops."""
        return all(load <= epsilon for load in self.remote_load(cloud).values())

    def remaining_qubits_after(self, cloud: QuantumCloud) -> int:
        """Objective Eq. 2 evaluated as if this placement were admitted."""
        usage = self.qubits_per_qpu()
        return sum(
            cloud.qpu(qpu_id).computing_available - usage.get(qpu_id, 0)
            for qpu_id in cloud.qpu_ids
        )

    def interaction_graph(self) -> InteractionGraph:
        return InteractionGraph.from_circuit(self.circuit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Placement(circuit={self.circuit.name!r}, algorithm={self.algorithm!r}, "
            f"qpus={self.num_qpus_used}, remote={self.num_remote_operations()})"
        )


class PlacementAlgorithm(abc.ABC):
    """Interface every placement policy implements."""

    name = "abstract"

    @abc.abstractmethod
    def place(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional["PlacementContext"] = None,
    ) -> Placement:
        """Compute a capacity-respecting placement of ``circuit`` on ``cloud``.

        ``context`` optionally memoizes work shared across placement attempts
        (see :class:`~repro.placement.PlacementContext`); algorithms that have
        nothing to memoize ignore it.  Results must be identical with and
        without a context under any fixed seed.
        """

    def __call__(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional["PlacementContext"] = None,
    ) -> Placement:
        return self.place(circuit, cloud, seed=seed, context=context)


def validate_placement(placement: Placement, cloud: QuantumCloud) -> None:
    """Raise ``ValueError`` if ``placement`` is structurally invalid for ``cloud``."""
    unknown = set(placement.mapping.values()) - set(cloud.qpu_ids)
    if unknown:
        raise ValueError(f"placement uses unknown QPUs {sorted(unknown)}")
    if not placement.respects_capacity(cloud):
        raise ValueError("placement exceeds per-QPU computing capacity")
