"""Tests for the cloud network topology."""

import networkx as nx
import pytest

from repro.cloud import CloudTopology, QuantumCloud, TopologyError
from repro.network import EPRModel


class TestConstructors:
    def test_random_topology_is_connected(self):
        topology = CloudTopology.random(num_qpus=20, edge_probability=0.3, seed=1)
        assert topology.num_qpus == 20
        assert nx.is_connected(topology.graph)

    def test_random_topology_low_probability_still_connected(self):
        topology = CloudTopology.random(num_qpus=15, edge_probability=0.01, seed=2)
        assert nx.is_connected(topology.graph)

    def test_random_topology_determinism(self):
        a = CloudTopology.random(10, 0.3, seed=5)
        b = CloudTopology.random(10, 0.3, seed=5)
        assert sorted(a.links()) == sorted(b.links())

    def test_line_ring_star_complete_shapes(self):
        assert CloudTopology.line(5).num_links == 4
        assert CloudTopology.ring(5).num_links == 5
        assert CloudTopology.star(5).num_links == 4
        assert CloudTopology.complete(5).num_links == 10

    def test_grid_topology(self):
        grid = CloudTopology.grid(2, 3)
        assert grid.num_qpus == 6
        assert grid.num_links == 7

    def test_from_edges(self):
        topology = CloudTopology.from_edges(3, [(0, 1), (1, 2)])
        assert topology.distance(0, 2) == 2

    def test_disconnected_topology_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        with pytest.raises(TopologyError):
            CloudTopology(graph)

    def test_invalid_probability(self):
        with pytest.raises(TopologyError):
            CloudTopology.random(5, edge_probability=1.5)


class TestDistances:
    def test_line_distances(self):
        line = CloudTopology.line(5)
        assert line.distance(0, 4) == 4
        assert line.distance(2, 2) == 0
        assert line.distance(1, 3) == 2

    def test_distance_matrix_symmetry(self):
        topology = CloudTopology.random(8, 0.4, seed=3)
        matrix = topology.distance_matrix()
        assert matrix.shape == (8, 8)
        assert (matrix == matrix.T).all()
        assert (matrix.diagonal() == 0).all()

    def test_shortest_path_endpoints(self):
        ring = CloudTopology.ring(6)
        path = ring.shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) - 1 == ring.distance(0, 3)

    def test_diameter_and_degree(self):
        line = CloudTopology.line(4)
        assert line.diameter() == 3
        assert line.average_degree() == pytest.approx(1.5)


class TestLinkProbabilities:
    def test_default_link_probability(self):
        line = CloudTopology.line(3)
        assert line.link_success_probability(0, 1, default=0.3) == 0.3

    def test_link_probability_override(self):
        line = CloudTopology.line(3)
        line.graph[0][1]["epr_success_probability"] = 0.9
        assert line.link_success_probability(0, 1, default=0.3) == 0.9

    def test_missing_link_raises(self):
        line = CloudTopology.line(3)
        with pytest.raises(TopologyError):
            line.link_success_probability(0, 2, default=0.3)

    def test_path_probability_multiplies_per_hop(self):
        line = CloudTopology.line(4)
        assert line.path_success_probability(0, 3, default=0.5) == pytest.approx(0.125)
        assert line.path_success_probability(1, 1, default=0.5) == 1.0

    def test_path_probability_resolves_overrides_live(self):
        # The path is cached per QPU pair; link probabilities are not, so a
        # per-QPU override (a calibration window) applies on the next call.
        cloud = QuantumCloud(CloudTopology.grid(3, 3), epr_success_probability=0.3)
        topology = cloud.topology
        model = EPRModel(topology, 0.3, qpu_probability=cloud.qpu_epr_probability)

        def along_shortest_path() -> float:
            path = nx.shortest_path(topology.graph, 0, 2)
            probability = 1.0
            for u, v in zip(path, path[1:]):
                probability *= topology.link_success_probability(
                    u, v, 0.3, cloud.qpu_epr_probability
                )
            return probability

        assert nx.shortest_path(topology.graph, 0, 2) == [0, 1, 2]
        topology.shortest_path(0, 2).append(5)  # callers get their own list
        assert topology.shortest_path(0, 2) == [0, 1, 2]
        for middle, link in ((None, None), (0.1, None), (None, None), (0.1, 0.8)):
            if link is not None:
                topology.graph.edges[0, 1]["epr_success_probability"] = link
            cloud.set_qpu_epr_probability(1, middle)
            expected = along_shortest_path()
            middle_link = min(0.3, middle or 0.3)
            assert expected == (link or middle_link) * middle_link
            assert topology.path_success_probability(
                0, 2, 0.3, cloud.qpu_epr_probability
            ) == expected
            assert model.pair_success_probability(0, 2) == expected

    def test_neighbors_and_has_link(self):
        ring = CloudTopology.ring(4)
        assert ring.neighbors(0) == [1, 3]
        assert ring.has_link(0, 1)
        assert not ring.has_link(0, 2)
