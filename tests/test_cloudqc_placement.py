"""Tests for the CloudQC placement algorithm (Algorithm 1) and its BFS variant."""

import pytest

from repro.circuits.library import get_circuit, ghz, ising, qft
from repro.cloud import CloudTopology, QuantumCloud
from repro.placement import (
    CloudQCBFSPlacement,
    CloudQCPlacement,
    MappingError,
    PlacementContext,
    RandomPlacement,
    validate_placement,
)


class TestSingleQpuFastPath:
    def test_small_circuit_lands_on_one_qpu(self, default_cloud, bell_circuit):
        placement = CloudQCPlacement().place(bell_circuit, default_cloud, seed=1)
        assert placement.num_qpus_used == 1
        assert placement.num_remote_operations() == 0


class TestDistributedPlacement:
    def test_large_circuit_spans_multiple_qpus(self, default_cloud):
        circuit = ghz(64)
        placement = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        assert placement.num_qpus_used >= 4
        validate_placement(placement, default_cloud)

    def test_ghz_chain_cut_is_small(self, default_cloud):
        circuit = ghz(64)
        placement = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        # A chain split across k QPUs needs at least k-1 remote gates; CloudQC
        # should stay close to that lower bound (Table III shows 8 for ghz_n127).
        assert placement.num_remote_operations() <= 2 * placement.num_qpus_used

    def test_beats_random_on_structured_circuits(self, default_cloud):
        circuit = get_circuit("adder_n64")
        cloudqc = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        random = RandomPlacement().place(circuit, default_cloud, seed=1)
        assert (
            cloudqc.num_remote_operations() < 0.5 * random.num_remote_operations()
        )

    def test_respects_partial_occupancy(self, default_cloud):
        # Fill half the cloud with another tenant, then place a 64-qubit job.
        occupied = {i: i % 10 for i in range(100)}
        default_cloud.admit("tenant-a", occupied)
        circuit = ghz(64)
        placement = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        validate_placement(placement, default_cloud)

    def test_placement_metadata_populated(self, default_cloud):
        circuit = ising(34)
        placement = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        assert "estimated_time" in placement.metadata
        assert "communication_cost" in placement.metadata
        assert placement.score > 0

    def test_insufficient_total_capacity_raises(self):
        topology = CloudTopology.line(2)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=4)
        with pytest.raises(MappingError):
            CloudQCPlacement().place(ghz(16), cloud, seed=1)

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            CloudQCPlacement(imbalance_factors=())


class TestBfsVariant:
    def test_bfs_variant_produces_valid_placement(self, default_cloud):
        circuit = get_circuit("knn_n67")
        placement = CloudQCBFSPlacement().place(circuit, default_cloud, seed=1)
        validate_placement(placement, default_cloud)
        assert placement.algorithm == "cloudqc-bfs"

    def test_bfs_and_community_both_beat_random_on_qugan(self, default_cloud):
        circuit = get_circuit("qugan_n71")
        bfs = CloudQCBFSPlacement().place(circuit, default_cloud, seed=1)
        community = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        random = RandomPlacement().place(circuit, default_cloud, seed=1)
        assert bfs.num_remote_operations() < random.num_remote_operations()
        assert community.num_remote_operations() < random.num_remote_operations()


class TestScaling:
    def test_qft_placement_within_total_gate_count(self, default_cloud):
        circuit = qft(63)
        placement = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        assert placement.num_remote_operations() <= circuit.num_two_qubit_gates

    def test_candidate_part_counts_cover_minimum(self, default_cloud):
        placer = CloudQCPlacement(max_extra_parts=2)
        counts = placer._candidate_part_counts(64, default_cloud)
        assert min(counts) >= 2
        assert counts[0] <= 4  # 64 qubits over 20-qubit QPUs needs at least 4
        assert max(counts) <= default_cloud.num_qpus


class TestSeedFreePlacement:
    """CloudQC is deterministic: the ``seed`` of ``place`` reaches neither the
    partitioner nor Louvain, which run with one fixed seed (as METIS returns
    one partition per input)."""

    def test_place_is_independent_of_seed(self, default_cloud):
        circuit = ghz(64)
        for algorithm in (CloudQCPlacement(), CloudQCBFSPlacement()):
            context = PlacementContext()
            placements = [
                algorithm.place(circuit, default_cloud, seed=seed, context=shared)
                for shared in (None, context)
                for seed in (0, 1, 100)
            ]
            for placement in placements[1:]:
                assert placement.mapping == placements[0].mapping, algorithm.name
                assert placement.score == placements[0].score, algorithm.name

    def test_partition_graph_sees_one_seed(self, default_cloud, monkeypatch):
        from repro.placement import context as context_module

        calls = []
        real_partition = context_module.partition_graph

        def spy(graph, num_parts, imbalance=0.05, seed=None, **kwargs):
            calls.append((float(imbalance), num_parts, seed))
            return real_partition(
                graph, num_parts, imbalance=imbalance, seed=seed, **kwargs
            )

        monkeypatch.setattr(context_module, "partition_graph", spy)
        algorithm = CloudQCPlacement()
        algorithm.place(ghz(64), default_cloud, seed=100)

        assert calls, "the distributed pipeline must run (no single-QPU fit)"
        # The whole (imbalance, num_parts) grid runs, all under one seed.
        assert {imbalance for imbalance, _, _ in calls} == set(
            algorithm.imbalance_factors
        )
        assert len({num_parts for _, num_parts, _ in calls}) > 1
        assert {seed for _, _, seed in calls} == {context_module.PLACEMENT_SEED}
