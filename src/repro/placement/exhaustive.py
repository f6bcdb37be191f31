"""Exhaustive (optimal) placement for small circuits.

Brute-force enumeration of all capacity-respecting qubit-to-QPU assignments,
minimising the paper's communication cost (Eq. 1).  Exponential in the qubit
count, so it is only usable for small instances — its purpose is to measure the
optimality gap of the heuristics (used by tests and the ablation benchmarks),
mirroring how the paper frames single-circuit placement as a Quadratic
Assignment Problem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..circuits import InteractionGraph, QuantumCircuit
from ..cloud import QuantumCloud
from .base import Placement, PlacementAlgorithm
from .mapping import MappingError
from .scoring import score_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext


class ExhaustivePlacement(PlacementAlgorithm):
    """Optimal qubit allocation by branch-and-bound enumeration."""

    name = "exhaustive"

    def __init__(self, max_qubits: int = 12, alpha: float = 1.0, beta: float = 1.0) -> None:
        if max_qubits < 1:
            raise ValueError("max_qubits must be positive")
        self.max_qubits = max_qubits
        self.alpha = alpha
        self.beta = beta

    def place(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional["PlacementContext"] = None,
    ) -> Placement:
        if circuit.num_qubits > self.max_qubits:
            raise MappingError(
                f"exhaustive placement is limited to {self.max_qubits} qubits; "
                f"{circuit.name} has {circuit.num_qubits}"
            )
        interaction = InteractionGraph.from_circuit(circuit)
        adjacency = interaction.adjacency()
        qpu_ids = cloud.qpu_ids
        capacity = cloud.available_computing()
        # detlint: ignore[DET003] integer capacity; sum is order-insensitive
        if sum(capacity.values()) < circuit.num_qubits:
            raise MappingError("insufficient computing qubits for exhaustive placement")

        # Order qubits by decreasing interaction weight so the bound prunes early.
        order = sorted(
            range(circuit.num_qubits),
            key=lambda q: -interaction.degree_weight(q),
        )
        distance = {
            (a, b): cloud.distance(a, b) for a in qpu_ids for b in qpu_ids
        }

        best_cost = float("inf")
        best_assignment: Optional[Dict[int, int]] = None
        assignment: Dict[int, int] = {}
        remaining = dict(capacity)

        def partial_cost(qubit: int, qpu: int) -> float:
            cost = 0.0
            for neighbor, weight in adjacency.get(qubit, {}).items():
                if neighbor in assignment:
                    cost += weight * distance[(qpu, assignment[neighbor])]  # detlint: ignore[DET003] adjacency order is fixed by the deterministic graph build; reordering would change bits pinned by golden tests
            return cost

        def search(index: int, cost_so_far: float) -> None:
            nonlocal best_cost, best_assignment
            if cost_so_far >= best_cost:
                return
            if index == len(order):
                best_cost = cost_so_far
                best_assignment = dict(assignment)
                return
            qubit = order[index]
            # Symmetry breaking: identical empty QPUs are interchangeable, so
            # only try the first untouched QPU of each capacity class.
            seen_untouched: set = set()
            for qpu in qpu_ids:
                if remaining[qpu] <= 0:
                    continue
                untouched = remaining[qpu] == capacity[qpu] and not any(
                    value == qpu for value in assignment.values()
                )
                if untouched:
                    key = (capacity[qpu],)
                    if key in seen_untouched:
                        continue
                    seen_untouched.add(key)
                step = partial_cost(qubit, qpu)
                assignment[qubit] = qpu
                remaining[qpu] -= 1
                search(index + 1, cost_so_far + step)
                remaining[qpu] += 1
                del assignment[qubit]

        search(0, 0.0)
        if best_assignment is None:
            raise MappingError("no feasible assignment found")
        metrics = score_mapping(
            circuit, best_assignment, cloud, alpha=self.alpha, beta=self.beta
        )
        return Placement(
            circuit=circuit,
            mapping=best_assignment,
            algorithm=self.name,
            score=metrics["score"],
            metadata=metrics,
        )


def optimal_communication_cost(
    circuit: QuantumCircuit, cloud: QuantumCloud, max_qubits: int = 12
) -> Tuple[float, Dict[int, int]]:
    """Convenience wrapper returning (optimal Eq. 1 cost, optimal mapping)."""
    placement = ExhaustivePlacement(max_qubits=max_qubits).place(circuit, cloud)
    return placement.communication_cost(cloud), dict(placement.mapping)
