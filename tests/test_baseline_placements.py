"""Tests for the Random / Simulated Annealing / Genetic placement baselines."""

import pytest

from repro.circuits.library import ghz, ising
from repro.placement import (
    GeneticPlacement,
    PLACEMENT_ALGORITHMS,
    RandomPlacement,
    SimulatedAnnealingPlacement,
    get_placement_algorithm,
    random_mapping,
    random_qpu_walk,
    validate_placement,
)
from repro.cloud import CloudTopology, QuantumCloud
from repro.placement.mapping import MappingError
import numpy as np


class TestRandomPlacement:
    def test_valid_and_capacity_respecting(self, default_cloud):
        circuit = ghz(64)
        placement = RandomPlacement().place(circuit, default_cloud, seed=3)
        validate_placement(placement, default_cloud)

    def test_random_walk_capacity(self, default_cloud):
        rng = np.random.default_rng(0)
        selection = random_qpu_walk(default_cloud, 100, rng)
        total = sum(default_cloud.qpu(q).computing_available for q in selection)
        assert total >= 100

    def test_random_mapping_respects_capacity(self, small_cloud, chain_circuit):
        rng = np.random.default_rng(1)
        mapping = random_mapping(chain_circuit, small_cloud, rng)
        usage = {}
        for qpu in mapping.values():
            usage[qpu] = usage.get(qpu, 0) + 1
        for qpu, used in usage.items():
            assert used <= small_cloud.qpu(qpu).computing_available

    def test_random_mapping_rejects_qpus_outside_the_fleet(self, chain_circuit):
        cloud = QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(MappingError, match=r"QPUs \[7\] are not in"):
            random_mapping(chain_circuit, cloud, rng, qpu_set=[0, 7, 1])
        assert rng.bit_generator.state == state  # raised before any draw

    def test_seeded_runs_reproducible(self, default_cloud):
        circuit = ghz(40)
        a = RandomPlacement().place(circuit, default_cloud, seed=5)
        b = RandomPlacement().place(circuit, default_cloud, seed=5)
        assert a.mapping == b.mapping


class TestSimulatedAnnealing:
    def test_improves_over_random(self, default_cloud):
        circuit = ising(66)
        sa = SimulatedAnnealingPlacement(iterations=2000).place(
            circuit, default_cloud, seed=2
        )
        random = RandomPlacement().place(circuit, default_cloud, seed=2)
        assert sa.communication_cost(default_cloud) <= random.communication_cost(
            default_cloud
        )

    def test_capacity_respected(self, default_cloud):
        circuit = ghz(80)
        placement = SimulatedAnnealingPlacement(iterations=500).place(
            circuit, default_cloud, seed=4
        )
        validate_placement(placement, default_cloud)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingPlacement(iterations=0)
        with pytest.raises(ValueError):
            SimulatedAnnealingPlacement(cooling=1.5)


class TestGenetic:
    def test_capacity_respected(self, default_cloud):
        circuit = ghz(80)
        placement = GeneticPlacement(population_size=10, generations=5).place(
            circuit, default_cloud, seed=4
        )
        validate_placement(placement, default_cloud)

    def test_improves_over_random(self, default_cloud):
        circuit = ising(66)
        ga = GeneticPlacement(population_size=16, generations=15).place(
            circuit, default_cloud, seed=3
        )
        random = RandomPlacement().place(circuit, default_cloud, seed=3)
        assert ga.communication_cost(default_cloud) <= random.communication_cost(
            default_cloud
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GeneticPlacement(population_size=1)
        with pytest.raises(ValueError):
            GeneticPlacement(population_size=4, elitism=4)


class TestRegistry:
    def test_registry_contains_all_algorithms(self):
        assert set(PLACEMENT_ALGORITHMS) == {
            "cloudqc",
            "cloudqc-bfs",
            "random",
            "simulated-annealing",
            "genetic",
            "exhaustive",
        }

    def test_get_placement_algorithm(self):
        algo = get_placement_algorithm("simulated-annealing", iterations=10)
        assert algo.iterations == 10

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            get_placement_algorithm("does-not-exist")
