"""Simulated-annealing placement baseline (Mao et al., INFOCOM 2023 style).

Starts from a random capacity-respecting placement and explores two move
types -- relocating one qubit to a QPU with slack, or swapping two qubits on
different QPUs -- accepting cost increases with the Metropolis criterion under
a geometric cooling schedule.  The objective is the paper's communication cost
(Eq. 1).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..circuits import InteractionGraph, QuantumCircuit
from ..cloud import QuantumCloud
from .base import Placement, PlacementAlgorithm
from .random_placement import random_mapping
from .scoring import score_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext


class SimulatedAnnealingPlacement(PlacementAlgorithm):
    """Single-circuit qubit allocation by simulated annealing."""

    name = "simulated-annealing"

    def __init__(
        self,
        iterations: int = 4000,
        initial_temperature: float = 50.0,
        cooling: float = 0.997,
        min_temperature: float = 0.05,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling rate must lie in (0, 1)")
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.min_temperature = min_temperature
        self.alpha = alpha
        self.beta = beta

    def place(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional["PlacementContext"] = None,
    ) -> Placement:
        rng = np.random.default_rng(seed)
        interaction = InteractionGraph.from_circuit(circuit)
        adjacency = interaction.adjacency()

        mapping = random_mapping(circuit, cloud, rng)
        slack = self._slack(cloud, mapping)

        def qubit_cost(qubit: int, assignment: Dict[int, int]) -> float:
            qpu = assignment[qubit]
            total = 0.0
            for neighbor, weight in adjacency.get(qubit, {}).items():
                other = assignment[neighbor]
                if other != qpu:
                    total += weight * cloud.distance(qpu, other)  # detlint: ignore[DET003] adjacency order is fixed by the deterministic graph build; reordering would change bits pinned by golden tests
            return total

        current_cost = sum(qubit_cost(q, mapping) for q in mapping) / 1.0
        best_mapping = dict(mapping)
        best_cost = current_cost
        temperature = self.initial_temperature
        qubits = list(mapping)
        qpu_ids = cloud.qpu_ids

        for _ in range(self.iterations):
            use_swap = rng.random() < 0.5 and len(qubits) >= 2
            if use_swap:
                a, b = rng.choice(len(qubits), size=2, replace=False)
                qa, qb = qubits[int(a)], qubits[int(b)]
                if mapping[qa] == mapping[qb]:
                    temperature = max(temperature * self.cooling, self.min_temperature)
                    continue
                delta = self._swap_delta(qa, qb, mapping, qubit_cost)
                accept = delta <= 0 or rng.random() < math.exp(-delta / temperature)
                if accept:
                    mapping[qa], mapping[qb] = mapping[qb], mapping[qa]
                    current_cost += delta
            else:
                qubit = qubits[int(rng.integers(len(qubits)))]
                options = [q for q in qpu_ids if slack[q] > 0 and q != mapping[qubit]]
                if not options:
                    temperature = max(temperature * self.cooling, self.min_temperature)
                    continue
                target = int(rng.choice(options))
                old = mapping[qubit]
                before = 2.0 * qubit_cost(qubit, mapping)
                mapping[qubit] = target
                after = 2.0 * qubit_cost(qubit, mapping)
                delta = after - before
                accept = delta <= 0 or rng.random() < math.exp(-delta / temperature)
                if accept:
                    slack[old] += 1
                    slack[target] -= 1
                    current_cost += delta
                else:
                    mapping[qubit] = old
            if current_cost < best_cost:
                best_cost = current_cost
                best_mapping = dict(mapping)
            temperature = max(temperature * self.cooling, self.min_temperature)

        metrics = score_mapping(
            circuit, best_mapping, cloud, alpha=self.alpha, beta=self.beta
        )
        return Placement(
            circuit=circuit,
            mapping=best_mapping,
            algorithm=self.name,
            score=metrics["score"],
            metadata=metrics,
        )

    @staticmethod
    def _slack(cloud: QuantumCloud, mapping: Dict[int, int]) -> Dict[int, int]:
        slack = {q: cloud.qpu(q).computing_available for q in cloud.qpu_ids}
        for qpu in mapping.values():
            slack[qpu] -= 1
        return slack

    @staticmethod
    def _swap_delta(qa: int, qb: int, mapping: Dict[int, int], qubit_cost) -> float:
        """Change in twice-counted cost caused by swapping the QPUs of qa and qb."""
        before = 2.0 * (qubit_cost(qa, mapping) + qubit_cost(qb, mapping))
        mapping[qa], mapping[qb] = mapping[qb], mapping[qa]
        after = 2.0 * (qubit_cost(qa, mapping) + qubit_cost(qb, mapping))
        mapping[qa], mapping[qb] = mapping[qb], mapping[qa]
        return after - before
