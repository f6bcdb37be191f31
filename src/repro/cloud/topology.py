"""Quantum-network topology of the cloud: QPUs connected by quantum links.

The paper uses a random topology (edge probability 0.3) of 20 QPUs; this module
also provides line, ring, grid and star topologies for sensitivity studies.
The communication cost ``C_ij`` between two QPUs is the hop length of the
shortest path between them (Sec. IV-B), so the topology also precomputes
all-pairs shortest paths.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np


class TopologyError(ValueError):
    """Raised when a topology cannot be built or is disconnected."""


class CloudTopology:
    """Undirected graph of QPU ids with per-link attributes.

    Link attributes:

    ``weight``
        Link length used in path cost computation (default 1.0 per hop).
    ``epr_success_probability``
        Per-attempt success probability of EPR generation over that link;
        ``None`` means "use the cloud-wide default".
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("topology must contain at least one QPU")
        if not nx.is_connected(graph):
            raise TopologyError("topology must be connected")
        self.graph = graph
        # All-pairs hop distances and each pair's shortest-path links (with
        # each link's live attribute dict), filled on first use: the wiring
        # never changes after construction.
        self._distances: Optional[Dict[int, Dict[int, int]]] = None
        self._path_links: Dict[Tuple[int, int], Tuple[Tuple[int, int, dict], ...]] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        num_qpus: int = 20,
        edge_probability: float = 0.3,
        seed: Optional[int] = None,
    ) -> "CloudTopology":
        """Erdos-Renyi G(n, p) topology; re-sampled until connected.

        Matches the paper's default: 20 QPUs, edge probability 0.3.
        """
        if num_qpus <= 0:
            raise TopologyError("need at least one QPU")
        if not 0.0 <= edge_probability <= 1.0:
            raise TopologyError("edge probability must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            graph = nx.Graph()
            graph.add_nodes_from(range(num_qpus))
            for a, b in itertools.combinations(range(num_qpus), 2):
                if rng.random() < edge_probability:
                    graph.add_edge(a, b, weight=1.0)
            if num_qpus == 1 or nx.is_connected(graph):
                return cls(graph)
            # Patch connectivity instead of resampling forever for tiny p.
            components = [sorted(c) for c in nx.connected_components(graph)]
            if len(components) <= num_qpus:
                for first, second in zip(components, components[1:]):
                    graph.add_edge(first[0], second[0], weight=1.0)
                return cls(graph)
        raise TopologyError("failed to sample a connected random topology")

    @classmethod
    def line(cls, num_qpus: int) -> "CloudTopology":
        graph = nx.path_graph(num_qpus)
        nx.set_edge_attributes(graph, 1.0, "weight")
        return cls(graph)

    @classmethod
    def ring(cls, num_qpus: int) -> "CloudTopology":
        graph = nx.cycle_graph(num_qpus)
        nx.set_edge_attributes(graph, 1.0, "weight")
        return cls(graph)

    @classmethod
    def star(cls, num_qpus: int) -> "CloudTopology":
        graph = nx.star_graph(num_qpus - 1)
        nx.set_edge_attributes(graph, 1.0, "weight")
        return cls(graph)

    @classmethod
    def grid(cls, rows: int, columns: int) -> "CloudTopology":
        grid = nx.grid_2d_graph(rows, columns)
        relabel = {node: index for index, node in enumerate(sorted(grid.nodes()))}
        graph = nx.relabel_nodes(grid, relabel)
        nx.set_edge_attributes(graph, 1.0, "weight")
        return cls(graph)

    @classmethod
    def complete(cls, num_qpus: int) -> "CloudTopology":
        graph = nx.complete_graph(num_qpus)
        nx.set_edge_attributes(graph, 1.0, "weight")
        return cls(graph)

    @classmethod
    def from_edges(
        cls, num_qpus: int, edges: Iterable[Tuple[int, int]]
    ) -> "CloudTopology":
        graph = nx.Graph()
        graph.add_nodes_from(range(num_qpus))
        for a, b in edges:
            graph.add_edge(a, b, weight=1.0)
        return cls(graph)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_qpus(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def qpu_ids(self) -> List[int]:
        return sorted(self.graph.nodes())

    @property
    def num_links(self) -> int:
        return self.graph.number_of_edges()

    def neighbors(self, qpu_id: int) -> List[int]:
        return sorted(self.graph.neighbors(qpu_id))

    def has_link(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def links(self) -> List[Tuple[int, int]]:
        return [tuple(sorted(edge)) for edge in self.graph.edges()]

    def distance_table(self) -> Dict[int, Dict[int, int]]:
        """All-pairs hop distances, ``table[a][b]`` (computed once; read-only)."""
        if self._distances is None:
            self._distances = dict(nx.all_pairs_shortest_path_length(self.graph))
        return self._distances

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two QPUs -- the paper's ``C_ij``."""
        if a == b:
            return 0
        distances = self.distance_table()
        try:
            return distances[a][b]
        except KeyError as exc:  # pragma: no cover - topology is connected
            raise TopologyError(f"no path between QPU {a} and QPU {b}") from exc

    def shortest_path(self, a: int, b: int) -> List[int]:
        return list(nx.shortest_path(self.graph, a, b))

    def distance_matrix(self) -> np.ndarray:
        """Dense ``C_ij`` matrix indexed by sorted QPU id order."""
        ids = self.qpu_ids
        index = {qpu: i for i, qpu in enumerate(ids)}
        matrix = np.zeros((len(ids), len(ids)), dtype=float)
        for a in ids:
            for b in ids:
                matrix[index[a], index[b]] = self.distance(a, b)
        return matrix

    def diameter(self) -> int:
        return nx.diameter(self.graph)

    def average_degree(self) -> float:
        degrees = [d for _, d in self.graph.degree()]
        return float(sum(degrees)) / len(degrees)

    def link_success_probability(
        self,
        a: int,
        b: int,
        default: float,
        node_probability: Optional[Callable[[int], Optional[float]]] = None,
    ) -> float:
        """EPR success probability of the direct link (a, b).

        Resolution order: a per-link ``epr_success_probability`` attribute
        wins; otherwise, when ``node_probability`` is given, the link runs at
        the *minimum* of its two endpoints' per-QPU probabilities (a QPU in a
        calibration window degrades every link it serves), each falling back
        to ``default`` when the lookup returns ``None``.
        """
        data = self.graph.get_edge_data(a, b)
        if data is None:
            raise TopologyError(f"no quantum link between QPU {a} and QPU {b}")
        return _resolve_link_probability(data, a, b, default, node_probability)

    def path_success_probability(
        self,
        a: int,
        b: int,
        default: float,
        node_probability: Optional[Callable[[int], Optional[float]]] = None,
    ) -> float:
        """End-to-end success probability along the shortest path.

        Multi-hop paths need entanglement swapping at every intermediate node,
        so the end-to-end probability is the product of per-link probabilities
        (see :meth:`link_success_probability` for how per-QPU overrides fold
        into each link).  Only the path and its links' attribute dicts are
        cached; every link probability is resolved on each call, so per-QPU
        overrides and link attributes apply immediately.
        """
        if a == b:
            return 1.0
        links = self._path_links.get((a, b))
        if links is None:
            path = nx.shortest_path(self.graph, a, b)
            adjacency = self.graph.adj
            links = self._path_links[(a, b)] = tuple(
                (u, v, adjacency[u][v]) for u, v in zip(path, path[1:])
            )
        probability = 1.0
        for u, v, data in links:
            probability *= _resolve_link_probability(
                data, u, v, default, node_probability
            )
        return probability

    def to_networkx(self) -> nx.Graph:
        return self.graph.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CloudTopology(qpus={self.num_qpus}, links={self.num_links}, "
            f"diameter={self.diameter() if self.num_qpus > 1 else 0})"
        )


def _resolve_link_probability(
    data: dict,
    a: int,
    b: int,
    default: float,
    node_probability: Optional[Callable[[int], Optional[float]]],
) -> float:
    """One link's EPR probability from its attribute dict (see
    :meth:`CloudTopology.link_success_probability` for the resolution order)."""
    value = data.get("epr_success_probability")
    if value is not None:
        return float(value)
    if node_probability is None:
        return default
    p_a = node_probability(a)
    p_b = node_probability(b)
    return min(
        default if p_a is None else float(p_a),
        default if p_b is None else float(p_b),
    )
