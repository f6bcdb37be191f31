"""Weighted qubit-interaction graph.

The interaction graph is the input of CloudQC's graph-partitioning step:
vertices are logical qubits and an edge of weight ``w`` joins two qubits that
share ``w`` two-qubit gates (the paper's D_ij matrix).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

import networkx as nx

from .circuit import QuantumCircuit


def quotient_adjacency(
    edges: Iterable[Tuple[Hashable, Hashable, float]],
    assignment: Mapping[Hashable, Hashable],
) -> Dict[Hashable, Dict[Hashable, float]]:
    """Collapse qubits into their parts: ``{part: {other part: cut weight}}``.

    ``edges`` are ``(qubit, qubit, weight)`` triples.  Every part of
    ``assignment`` is a key, in sorted order; edges inside one part, or
    touching a qubit the assignment leaves out, are dropped.  Each row
    lists its neighbours in the order their first crossing edge arrives,
    as a networkx graph built edge by edge would.
    """
    # detlint: ignore[DET003] part labels are distinct ints; sorted() output is canonical regardless of set order
    adjacency = {part: {} for part in sorted(set(assignment.values()))}
    for a, b, weight in edges:
        if a not in assignment or b not in assignment:
            continue
        pa, pb = assignment[a], assignment[b]
        if pa == pb:
            continue
        total = adjacency[pa].get(pb)
        total = weight if total is None else total + weight
        adjacency[pa][pb] = total
        adjacency[pb][pa] = total
    return adjacency


class InteractionGraph:
    """Undirected weighted graph of two-qubit interactions in a circuit."""

    def __init__(self, num_qubits: int) -> None:
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(num_qubits))

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "InteractionGraph":
        instance = cls(circuit.num_qubits)
        for (a, b), weight in circuit.two_qubit_interactions().items():
            instance.graph.add_edge(a, b, weight=weight)
        return instance

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def weight(self, a: int, b: int) -> int:
        """Number of two-qubit gates between qubits ``a`` and ``b`` (0 if none)."""
        data = self.graph.get_edge_data(a, b)
        return int(data["weight"]) if data else 0

    def total_weight(self) -> int:
        """Total number of two-qubit gates represented by the graph."""
        return int(sum(d["weight"] for _, _, d in self.graph.edges(data=True)))

    def degree_weight(self, qubit: int) -> int:
        """Sum of interaction weights incident to ``qubit``."""
        return int(
            sum(d["weight"] for _, _, d in self.graph.edges(qubit, data=True))
        )

    def neighbors(self, qubit: int) -> List[int]:
        return sorted(self.graph.neighbors(qubit))

    def edges(self) -> Iterable[Tuple[int, int, int]]:
        for a, b, data in self.graph.edges(data=True):
            yield a, b, int(data["weight"])

    def adjacency(self) -> Dict[int, Dict[int, int]]:
        return {
            node: {nbr: int(d["weight"]) for nbr, d in nbrs.items()}
            for node, nbrs in self.graph.adjacency()
        }

    def graph_center(self) -> int:
        """Vertex minimising the longest hop distance to every other vertex.

        Works per connected component (the largest one); isolated qubits are
        ignored.  Used by Algorithm 2 to anchor the partition-to-QPU mapping.
        """
        if self.graph.number_of_nodes() == 0:
            raise ValueError("empty interaction graph has no center")
        components = list(nx.connected_components(self.graph))
        largest = max(components, key=len)
        if len(largest) == 1:
            return min(largest)
        subgraph = self.graph.subgraph(largest)
        eccentricity = nx.eccentricity(subgraph)
        return min(eccentricity, key=lambda node: (eccentricity[node], node))

    def subgraph(self, qubits: Iterable[int]) -> "InteractionGraph":
        chosen = set(qubits)
        instance = InteractionGraph(self.num_qubits)
        instance.graph = self.graph.subgraph(chosen).copy()
        return instance

    def to_networkx(self) -> nx.Graph:
        return self.graph.copy()
