"""Tests for the community-based and BFS QPU-set selection strategies."""

import networkx as nx
import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.community import CommunityError
from repro.placement import bfs_qpu_set, community_qpu_set


class TestBfsSelection:
    def test_bfs_covers_required_capacity(self, default_cloud):
        selection = bfs_qpu_set(default_cloud, 64)
        total = sum(default_cloud.qpu(q).computing_available for q in selection)
        assert total >= 64

    def test_bfs_selection_is_contiguous(self):
        topology = CloudTopology.line(8)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=5)
        selection = bfs_qpu_set(cloud, 14, start=0)
        assert selection == [0, 1, 2]

    def test_bfs_skips_full_qpus(self):
        topology = CloudTopology.line(4)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=5)
        cloud.admit("busy", {i: 1 for i in range(5)})  # QPU1 full
        selection = bfs_qpu_set(cloud, 10, start=0)
        assert 1 not in selection

    def test_bfs_skips_removed_qpus(self):
        # The static topology keeps a removed QPU's links; the walk must not
        # step onto it (it used to raise KeyError, as random_qpu_walk did).
        cloud = QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=2)
        cloud.remove_qpu(0)
        assert bfs_qpu_set(cloud, 3, min_qpus=2) == [1, 2]

    def test_bfs_min_qpus(self):
        topology = CloudTopology.line(6)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=10)
        selection = bfs_qpu_set(cloud, 5, min_qpus=3, start=2)
        assert len(selection) >= 3

    def test_bfs_insufficient_capacity_raises(self, small_cloud):
        with pytest.raises(CommunityError):
            bfs_qpu_set(small_cloud, 1000)

    def test_bfs_invalid_request(self, small_cloud):
        with pytest.raises(ValueError):
            bfs_qpu_set(small_cloud, 0)

    def test_bfs_default_start_is_most_available(self):
        topology = CloudTopology.line(3)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=6)
        cloud.admit("busy", {0: 0, 1: 0, 2: 0, 3: 1})  # free: QPU0=3, QPU1=5, QPU2=6
        selection = bfs_qpu_set(cloud, 5)
        assert selection == [2]

    def test_bfs_min_qpus_floor_enforced_when_capacity_already_covered(self):
        # Regression: the fallback used to stop once capacity was covered,
        # quietly returning fewer than ``min_qpus`` QPUs.  With plenty of
        # usable QPUs the floor must be honored even though the start QPU
        # alone covers the requirement.
        topology = CloudTopology.line(5)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=10)
        selection = bfs_qpu_set(cloud, 4, min_qpus=4, start=0)
        assert len(selection) >= 4

    def test_bfs_min_qpus_unreachable_raises(self):
        # Disconnected-availability path: only two QPUs have any free
        # capacity, so a min_qpus=4 floor is impossible and must raise
        # instead of quietly returning a 2-QPU set.
        topology = CloudTopology.line(5)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=4)
        # Drain QPUs 1, 2 and 3; free capacity survives only on QPUs 0 and 4.
        cloud.admit("hog", {i: 1 + i // 4 for i in range(12)})
        assert sorted(
            q for q, free in cloud.available_computing().items() if free > 0
        ) == [0, 4]
        with pytest.raises(CommunityError, match="need 4"):
            bfs_qpu_set(cloud, 6, min_qpus=4)
        # The same request without the floor still succeeds.
        assert bfs_qpu_set(cloud, 6, min_qpus=2) == [0, 4]


class TestCommunitySelection:
    def test_community_covers_required_capacity(self, default_cloud):
        selection = community_qpu_set(default_cloud, 100, min_qpus=5)
        total = sum(default_cloud.qpu(q).computing_available for q in selection)
        assert total >= 100
        assert len(selection) >= 5

    def test_community_selection_connected(self, default_cloud):
        selection = community_qpu_set(default_cloud, 60, min_qpus=3)
        subgraph = default_cloud.topology.graph.subgraph(selection)
        assert nx.is_connected(subgraph)

    def test_community_insufficient_capacity_raises(self, small_cloud):
        with pytest.raises(CommunityError):
            community_qpu_set(small_cloud, 1000)
