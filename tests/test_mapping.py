"""Tests for the partition-to-QPU mapping heuristic (Algorithm 2)."""

import networkx as nx
import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.placement import (
    MappingError,
    expand_parts_to_qubits,
    map_partitions_to_qpus,
)


def quotient(edges):
    graph = nx.Graph()
    for a, b, weight in edges:
        graph.add_edge(a, b, weight=weight)
    return graph


class TestMapPartitions:
    def test_parts_fit_on_distinct_qpus(self, small_cloud):
        sizes = {0: 3, 1: 3, 2: 3}
        graph = quotient([(0, 1, 5), (1, 2, 1)])
        mapping = map_partitions_to_qpus(sizes, graph, small_cloud, small_cloud.qpu_ids)
        assert len(set(mapping.values())) == 3
        for part, qpu in mapping.items():
            assert small_cloud.qpu(qpu).computing_available >= sizes[part]

    def test_heavily_interacting_parts_are_adjacent(self):
        topology = CloudTopology.line(6)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=4)
        sizes = {0: 3, 1: 3, 2: 3}
        graph = quotient([(0, 1, 50), (1, 2, 1)])
        mapping = map_partitions_to_qpus(sizes, graph, cloud, cloud.qpu_ids)
        assert cloud.distance(mapping[0], mapping[1]) <= cloud.distance(
            mapping[1], mapping[2]
        )

    def test_respects_live_availability(self, small_cloud):
        small_cloud.admit("other", {i: 0 for i in range(3)})  # QPU0 has 1 left
        sizes = {0: 4}
        mapping = map_partitions_to_qpus(sizes, quotient([]), small_cloud, [0, 1])
        assert mapping[0] != 0

    def test_candidates_preferred_over_rest(self, ring_cloud):
        sizes = {0: 2, 1: 2}
        graph = quotient([(0, 1, 3)])
        mapping = map_partitions_to_qpus(sizes, graph, ring_cloud, [2, 3])
        assert set(mapping.values()) <= {2, 3}

    def test_overflow_spills_outside_candidates(self):
        topology = CloudTopology.line(4)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=3)
        sizes = {0: 3, 1: 3, 2: 3}
        graph = quotient([(0, 1, 1), (1, 2, 1)])
        mapping = map_partitions_to_qpus(sizes, graph, cloud, [0, 1])
        assert len(set(mapping.values())) == 3  # one part had to leave the candidates

    def test_impossible_mapping_raises(self):
        topology = CloudTopology.line(2)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=2)
        with pytest.raises(MappingError):
            map_partitions_to_qpus({0: 5}, quotient([]), cloud, cloud.qpu_ids)

    def test_empty_parts(self, small_cloud):
        assert map_partitions_to_qpus({}, quotient([]), small_cloud, []) == {}

    def test_parts_without_quotient_edges_still_mapped(self, small_cloud):
        sizes = {0: 2, 1: 2, 2: 2}
        graph = quotient([(0, 1, 2)])  # part 2 has no cross edges
        mapping = map_partitions_to_qpus(sizes, graph, small_cloud, small_cloud.qpu_ids)
        assert set(mapping) == {0, 1, 2}

    def test_part_without_a_quotient_row_crosses_no_other(self):
        # No part crosses another, so the largest part (1) is the centre,
        # and the adjacency has no row for it.
        cloud = QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=10)
        mapping = map_partitions_to_qpus({0: 2, 1: 5}, {0: {}}, cloud, [0, 1])
        assert set(mapping) == {0, 1}
        assert mapping[0] != mapping[1]


class TestExpandParts:
    def test_composition(self):
        qubit_to_part = {0: "a", 1: "a", 2: "b"}
        part_to_qpu = {"a": 3, "b": 7}
        assert expand_parts_to_qubits(qubit_to_part, part_to_qpu) == {0: 3, 1: 3, 2: 7}

    def test_missing_part_raises(self):
        with pytest.raises(MappingError):
            expand_parts_to_qubits({0: "a"}, {})
