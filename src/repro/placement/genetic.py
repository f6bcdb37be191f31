"""Genetic-algorithm placement baseline (Sec. VI-B).

A classic generational GA over qubit-to-QPU assignments: tournament selection,
uniform crossover, per-gene mutation, and a capacity repair step after every
variation so all individuals satisfy the per-QPU computing constraint.  Fitness
is the inverse of the communication cost (Eq. 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from ..circuits import InteractionGraph, QuantumCircuit
from ..cloud import QuantumCloud
from .base import Placement, PlacementAlgorithm
from .random_placement import random_mapping
from .scoring import score_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext


class GeneticPlacement(PlacementAlgorithm):
    """Genetic-algorithm qubit allocation."""

    name = "genetic"

    def __init__(
        self,
        population_size: int = 24,
        generations: int = 40,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.05,
        tournament_size: int = 3,
        elitism: int = 2,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> None:
        if population_size < 2:
            raise ValueError("population size must be at least 2")
        if elitism >= population_size:
            raise ValueError("elitism must be smaller than the population size")
        self.population_size = population_size
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.tournament_size = tournament_size
        self.elitism = elitism
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
        capacity = cloud.available_computing()

        def cost(mapping: Dict[int, int]) -> float:
            total = 0.0
            for a, b, weight in interaction.edges():
                qa, qb = mapping[a], mapping[b]
                if qa != qb:
                    total += weight * cloud.distance(qa, qb)
            return total

        population = [
            random_mapping(circuit, cloud, rng) for _ in range(self.population_size)
        ]
        costs = [cost(individual) for individual in population]

        for _ in range(self.generations):
            ranked = sorted(range(len(population)), key=lambda i: costs[i])
            next_population: List[Dict[int, int]] = [
                dict(population[i]) for i in ranked[: self.elitism]
            ]
            while len(next_population) < self.population_size:
                parent_a = population[self._tournament(costs, rng)]
                parent_b = population[self._tournament(costs, rng)]
                if rng.random() < self.crossover_rate:
                    child = self._crossover(parent_a, parent_b, rng)
                else:
                    child = dict(parent_a)
                self._mutate(child, cloud, rng)
                self._repair(child, capacity, adjacency, cloud)
                next_population.append(child)
            population = next_population
            costs = [cost(individual) for individual in population]

        best_index = int(np.argmin(costs))
        best = population[best_index]
        metrics = score_mapping(circuit, best, cloud, alpha=self.alpha, beta=self.beta)
        return Placement(
            circuit=circuit,
            mapping=best,
            algorithm=self.name,
            score=metrics["score"],
            metadata=metrics,
        )

    def _tournament(self, costs: List[float], rng: np.random.Generator) -> int:
        contenders = rng.integers(len(costs), size=self.tournament_size)
        return int(min(contenders, key=lambda i: costs[int(i)]))

    @staticmethod
    def _crossover(
        parent_a: Dict[int, int], parent_b: Dict[int, int], rng: np.random.Generator
    ) -> Dict[int, int]:
        """Uniform crossover: every qubit inherits from one parent at random."""
        return {
            qubit: parent_a[qubit] if rng.random() < 0.5 else parent_b[qubit]
            for qubit in parent_a
        }

    def _mutate(
        self, individual: Dict[int, int], cloud: QuantumCloud, rng: np.random.Generator
    ) -> None:
        qpu_ids = cloud.qpu_ids
        for qubit in individual:
            if rng.random() < self.mutation_rate:
                individual[qubit] = int(rng.choice(qpu_ids))

    @staticmethod
    def _repair(
        individual: Dict[int, int],
        capacity: Mapping[int, int],
        adjacency: Dict[int, Dict[int, int]],
        cloud: QuantumCloud,
    ) -> None:
        """Move qubits off overloaded QPUs onto QPUs with slack.

        The qubit with the weakest attachment to its current QPU moves first,
        to the feasible QPU closest to its interaction partners.
        """
        load: Dict[int, int] = {qpu: 0 for qpu in capacity}
        for qpu in individual.values():
            load[qpu] = load.get(qpu, 0) + 1
        overloaded = [qpu for qpu in load if load[qpu] > capacity.get(qpu, 0)]
        for qpu in overloaded:
            members = [q for q, p in individual.items() if p == qpu]

            def attachment(qubit: int) -> float:
                # detlint: ignore[DET003] adjacency order is fixed by the deterministic graph build; re-sorting this float sum would change bits pinned by golden tests
                return sum(
                    weight
                    for neighbor, weight in adjacency.get(qubit, {}).items()
                    if individual[neighbor] == qpu
                )

            members.sort(key=attachment)
            while load[qpu] > capacity.get(qpu, 0) and members:
                qubit = members.pop(0)
                destinations = [
                    p for p in capacity if load.get(p, 0) < capacity[p] and p != qpu
                ]
                if not destinations:
                    break

                def pull(destination: int) -> float:
                    total = 0.0
                    for neighbor, weight in adjacency.get(qubit, {}).items():
                        total += weight * cloud.distance(destination, individual[neighbor])  # detlint: ignore[DET003] adjacency order is fixed by the deterministic graph build; reordering would change bits pinned by golden tests
                    return total

                target = min(destinations, key=pull)
                individual[qubit] = target
                load[qpu] -= 1
                load[target] = load.get(target, 0) + 1
