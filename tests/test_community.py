"""Tests for modularity, Louvain community detection, and QPU selection."""

import networkx as nx
import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.community import (
    CommunityError,
    community_capacity,
    expand_community,
    graph_center,
    louvain_communities,
    modularity,
    modularity_from_assignment,
    select_qpu_community,
    total_edge_weight,
    weighted_degrees,
)


def two_cliques(size: int = 8) -> nx.Graph:
    graph = nx.Graph()
    for base in (0, size):
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                graph.add_edge(i, j, weight=1.0)
    graph.add_edge(0, size, weight=1.0)
    return graph


class TestModularity:
    def test_total_edge_weight(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.0)
        graph.add_edge(1, 2, weight=3.0)
        assert total_edge_weight(graph) == 5.0

    def test_weighted_degrees(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.0)
        graph.add_edge(1, 2, weight=3.0)
        assert weighted_degrees(graph)[1] == 5.0

    def test_single_community_has_zero_modularity(self):
        graph = two_cliques(4)
        assert modularity(graph, [set(graph.nodes())]) == pytest.approx(0.0)

    def test_good_split_has_high_modularity(self):
        graph = two_cliques(6)
        left = {n for n in graph.nodes() if n < 6}
        right = set(graph.nodes()) - left
        assert modularity(graph, [left, right]) > 0.4

    def test_overlapping_communities_rejected(self):
        graph = two_cliques(3)
        with pytest.raises(ValueError):
            modularity(graph, [{0, 1, 2}, {2, 3, 4, 5}])

    def test_incomplete_cover_rejected(self):
        graph = two_cliques(3)
        with pytest.raises(ValueError):
            modularity(graph, [{0, 1}])

    def test_modularity_from_assignment(self):
        graph = two_cliques(4)
        assignment = {n: 0 if n < 4 else 1 for n in graph.nodes()}
        assert modularity_from_assignment(graph, assignment) > 0.3

    def test_empty_graph_modularity_zero(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        assert modularity(graph, [{0}, {1}]) == 0.0


class TestDetection:
    def test_louvain_recovers_cliques(self):
        graph = two_cliques()
        communities = louvain_communities(graph, seed=1)
        assert len(communities) == 2
        assert {frozenset(c) for c in communities} == {
            frozenset(range(8)),
            frozenset(range(8, 16)),
        }

    def test_louvain_empty_graph(self):
        assert louvain_communities(nx.Graph()) == []

    def test_louvain_non_contiguous_node_labels(self):
        # Regression: a graph whose labels have holes (node 0 missing, as in
        # a resource graph after a QPU left the fleet) used to KeyError when
        # level 1 merged communities, because the membership map was seeded
        # with enumeration indices instead of node labels.
        graph = nx.Graph()
        graph.add_edge(1, 2, weight=3.0)
        graph.add_edge(2, 3, weight=3.0)
        graph.add_edge(1, 3, weight=3.0)
        graph.add_edge(3, 7, weight=0.1)
        graph.add_edge(7, 8, weight=3.0)
        communities = louvain_communities(graph, seed=1)
        assert set().union(*communities) == {1, 2, 3, 7, 8}
        assert {1, 2, 3} in communities

    def test_communities_partition_the_nodes(self):
        graph = nx.erdos_renyi_graph(25, 0.2, seed=3)
        nx.set_edge_attributes(graph, 1.0, "weight")
        communities = louvain_communities(graph, seed=2)
        union = set().union(*communities) if communities else set()
        assert union == set(graph.nodes())
        assert sum(len(c) for c in communities) == graph.number_of_nodes()


class TestGraphCenter:
    def test_center_of_path(self):
        graph = nx.path_graph(7)
        assert graph_center(graph) == 3

    def test_center_restricted_to_nodes(self):
        graph = nx.path_graph(7)
        assert graph_center(graph, nodes=[0, 1, 2]) == 1

    def test_center_of_single_node(self):
        graph = nx.Graph()
        graph.add_node(5)
        assert graph_center(graph) == 5

    def test_center_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            graph_center(nx.Graph())


class TestQpuSelection:
    def _resource_graph(self, availabilities, edges):
        graph = nx.Graph()
        for node, available in enumerate(availabilities):
            graph.add_node(node, available=available, capacity=available)
        for a, b in edges:
            graph.add_edge(a, b, weight=1.0)
        return graph

    def test_community_capacity(self):
        graph = self._resource_graph([5, 10, 0], [(0, 1), (1, 2)])
        assert community_capacity(graph, {0, 1}) == 15

    def test_select_prefers_tight_fitting_community(self, default_cloud):
        selection = select_qpu_community(
            default_cloud.resource_graph(), 64, min_qpus=4, seed=1
        )
        total = sum(
            default_cloud.qpu(qpu).computing_available for qpu in selection
        )
        assert total >= 64
        assert len(selection) < default_cloud.num_qpus

    def test_select_raises_when_cloud_is_full(self):
        graph = self._resource_graph([2, 2], [(0, 1)])
        with pytest.raises(CommunityError):
            select_qpu_community(graph, 10)

    def test_expand_community_grows_until_capacity(self):
        graph = self._resource_graph([4, 4, 4, 4], [(0, 1), (1, 2), (2, 3)])
        grown = expand_community(graph, {0}, 10)
        assert community_capacity(graph, grown) >= 10

    def test_expand_community_unreachable_raises(self):
        graph = self._resource_graph([4, 4], [])
        with pytest.raises(CommunityError):
            expand_community(graph, {0}, 8)

    def test_select_requires_positive_request(self, default_cloud):
        with pytest.raises(ValueError):
            select_qpu_community(default_cloud.resource_graph(), 0)

    def test_selection_is_connected_for_line_cloud(self):
        topology = CloudTopology.line(8)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=5)
        selection = select_qpu_community(cloud.resource_graph(), 12, seed=1)
        subgraph = cloud.topology.graph.subgraph(selection)
        assert nx.is_connected(subgraph)
