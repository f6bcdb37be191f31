"""Tests for the qubit interaction graph.

The cut and quotient cases run the graph's edges through the functions the
partitioner and the mapping use: ``edge_cut`` and ``quotient_adjacency``.
"""

import pytest

from repro.circuits import InteractionGraph, QuantumCircuit, quotient_adjacency
from repro.partition import edge_cut


@pytest.fixture
def triangle_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.cx(0, 2)
    return circuit


class TestConstruction:
    def test_weights_count_repeated_gates(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        assert graph.weight(0, 1) == 2
        assert graph.weight(1, 2) == 1
        assert graph.weight(0, 2) == 1
        assert graph.weight(1, 0) == 2  # undirected

    def test_missing_edge_weight_is_zero(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        assert graph.weight(0, 0) == 0

    def test_isolated_qubits_present(self):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.num_qubits == 5
        assert graph.neighbors(4) == []

    def test_total_weight(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        assert graph.total_weight() == 4

    def test_degree_weight(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        assert graph.degree_weight(0) == 3
        assert graph.degree_weight(1) == 3
        assert graph.degree_weight(2) == 2


class TestCut:
    def test_cut_weight_counts_cross_edges(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        assignment = {0: 0, 1: 0, 2: 1}
        assert edge_cut(graph.to_networkx(), assignment) == 2  # (1,2) and (0,2)

    def test_cut_weight_zero_for_single_part(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        assert edge_cut(graph.to_networkx(), {0: 0, 1: 0, 2: 0}) == 0


class TestCenterAndQuotient:
    def test_graph_center_of_a_path(self):
        circuit = QuantumCircuit(5)
        for q in range(4):
            circuit.cx(q, q + 1)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.graph_center() == 2

    def test_graph_center_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            InteractionGraph(0).graph_center()

    def test_quotient_graph_aggregates_cut_weight(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        quotient = quotient_adjacency(graph.edges(), {0: 0, 1: 0, 2: 1})
        assert quotient[0][1] == 2
        assert 0 not in quotient[0]

    def test_quotient_graph_has_all_parts_as_nodes(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        quotient = quotient_adjacency(graph.edges(), {0: 0, 1: 1, 2: 2})
        assert set(quotient) == {0, 1, 2}

    def test_subgraph_restricts_nodes(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        sub = graph.subgraph([0, 1])
        assert sub.weight(0, 1) == 2
        assert sub.weight(1, 2) == 0

    def test_to_networkx_returns_copy(self, triangle_circuit):
        graph = InteractionGraph.from_circuit(triangle_circuit)
        nx_graph = graph.to_networkx()
        nx_graph.remove_edge(0, 1)
        assert graph.weight(0, 1) == 2
