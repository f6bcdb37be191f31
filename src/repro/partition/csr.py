"""Frozen adjacency-list form of a weighted graph for the partitioner's kernels.

Dict-of-dicts access costs more than the arithmetic the multilevel
partitioner does per edge, so every kernel in :mod:`repro.partition` runs on
a :class:`CSRGraph`: nodes are renumbered ``0..n-1`` in networkx iteration
order, and each node's row lists its neighbours and edge weights in networkx
adjacency order.  Keeping both orders is what keeps the kernels bit-identical
to the networkx formulation they replaced: RNG shuffles permute the same
positions, ties resolve to the same nodes and float sums add in the same
sequence.

The rows are plain Python lists rather than numpy arrays: on graphs of tens
to hundreds of nodes, numpy scalar indexing costs more than the arithmetic it
feeds.  A graph is read-only once built; circuits are frozen, so the
placement context builds one per circuit and shares it across attempts.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Sequence, Tuple, Union

import networkx as nx


class CSRGraph:
    """Index-space adjacency of a weighted undirected graph (read-only).

    Attributes
    ----------
    labels:
        Node label of every index, in networkx node order.
    index:
        Label -> index.
    neighbors, weights:
        Per-node rows: neighbour indices and ``float`` edge weights in
        networkx adjacency order (a self-loop appears once in its row).
    node_weights:
        ``float`` node weights (attribute ``weight``, default 1).
    degrees:
        Weighted degree of every node: ``sum()`` of its row, the same
        expression networkx-based code used.
    """

    __slots__ = (
        "labels",
        "index",
        "neighbors",
        "weights",
        "node_weights",
        "degrees",
    )

    def __init__(
        self,
        labels: Sequence[Hashable],
        neighbors: List[List[int]],
        weights: List[List[float]],
        node_weights: List[float],
    ) -> None:
        self.labels = list(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.neighbors = neighbors
        self.weights = weights
        self.node_weights = node_weights
        self.degrees = [sum(row) for row in weights]

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "CSRGraph":
        labels = list(graph)
        index = {label: i for i, label in enumerate(labels)}
        neighbors: List[List[int]] = []
        weights: List[List[float]] = []
        for _, adjacent in graph.adjacency():
            neighbors.append([index[other] for other in adjacent])
            weights.append(
                [float(data.get("weight", 1.0)) for data in adjacent.values()]
            )
        node_weights = [
            float(weight) for _, weight in graph.nodes(data="weight", default=1.0)
        ]
        return cls(labels, neighbors, weights, node_weights)

    # ------------------------------------------------------------------
    # The slice of the networkx graph API that callers of the public
    # partition functions read from coarsening levels.
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        return len(self.labels)

    def nodes(
        self, data: bool = False
    ) -> Union[List[Hashable], List[Tuple[Hashable, Dict[str, float]]]]:
        if data:
            return [
                (label, {"weight": weight})
                for label, weight in zip(self.labels, self.node_weights)
            ]
        return list(self.labels)

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, float]]:
        """Each edge once as ``(label, label, weight)``, in networkx edge order.

        networkx yields an edge from whichever endpoint it iterates first,
        i.e. row ``u`` contributes its neighbours ``v >= u``.
        """
        labels = self.labels
        for u, (row, row_weights) in enumerate(zip(self.neighbors, self.weights)):
            for v, weight in zip(row, row_weights):
                if v >= u:
                    yield labels[u], labels[v], weight

    def hops(self, source: int) -> List[int]:
        """BFS hop distance from ``source`` to every node (``n`` if unreachable)."""
        n = len(self.labels)
        row = [n] * n
        row[source] = 0
        frontier = [source]
        depth = 0
        neighbors = self.neighbors
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for v in neighbors[u]:
                    if row[v] == n:
                        row[v] = depth
                        reached.append(v)
            frontier = reached
        return row


def as_csr(graph: Union[nx.Graph, CSRGraph]) -> CSRGraph:
    """``graph`` itself if it is already a :class:`CSRGraph`, else its CSR form."""
    return graph if isinstance(graph, CSRGraph) else CSRGraph.from_networkx(graph)
