"""QPU community selection for CloudQC's placement stage (Sec. V-B).

Given the cloud's resource graph (topology annotated with availability), find a
set of QPUs that is densely connected *and* has enough free computing qubits to
host a partitioned circuit.  Dense connectivity keeps remote gates short-range;
preferring already-identified communities leaves compact free regions for
future jobs.
"""

from __future__ import annotations

from typing import (
    Any,
    Container,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import networkx as nx

from .louvain import louvain_communities

#: ``{node: {neighbour: edge data}}`` -- networkx's own dict-of-dicts shape.
Adjacency = Mapping[Hashable, Mapping[Hashable, Any]]


class CommunityError(RuntimeError):
    """Raised when no QPU set with sufficient resources exists."""


def _adjacency(graph: Union[nx.Graph, Adjacency]) -> Adjacency:
    return dict(graph.adjacency()) if isinstance(graph, nx.Graph) else graph


def _hop_layers(
    adjacency: Adjacency, source: Hashable, inside: Container[Hashable]
) -> Tuple[Set[Hashable], int]:
    """BFS from ``source`` within ``inside``: (nodes reached, eccentricity)."""
    reached = {source}
    frontier = [source]
    depth = -1
    while frontier:
        depth += 1
        layer = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor in inside and neighbor not in reached:
                    reached.add(neighbor)
                    layer.append(neighbor)
        frontier = layer
    return reached, depth


def graph_center(
    graph: Union[nx.Graph, Adjacency], nodes: Optional[Iterable[Hashable]] = None
) -> Hashable:
    """Node minimising the longest hop distance to all others (Algorithm 2).

    ``graph`` is a networkx graph or an adjacency mapping (node ->
    neighbours).  When ``nodes`` is given, the centre is computed on that
    induced subgraph; disconnected subgraphs fall back to the largest
    component.  Eccentricity ties go to the smallest ``str(node)``.
    """
    adjacency = _adjacency(graph)
    inside: Container[Hashable] = adjacency
    if nodes is None:
        members = list(adjacency)
    else:
        inside = {node for node in nodes if node in adjacency}
        # Scan order decides which of two equal-size largest components
        # wins.  It is networkx's induced-subgraph order: the node set itself
        # when it holds under half the graph, else the graph's own order.
        if 2 * len(inside) < len(adjacency):
            members = list(inside)
        else:
            members = [node for node in adjacency if node in inside]
    if not members:
        raise ValueError("cannot compute the center of an empty graph")
    if len(members) == 1:
        return members[0]
    largest: Set[Hashable] = set()
    seen: Set[Hashable] = set()
    for node in members:
        if node not in seen:
            component, _ = _hop_layers(adjacency, node, inside)
            seen |= component
            if len(component) > len(largest):
                largest = component
    return min(
        largest,
        key=lambda node: (_hop_layers(adjacency, node, largest)[1], str(node)),
    )


def _availability(resource_graph: nx.Graph) -> Dict[Hashable, int]:
    return dict(resource_graph.nodes(data="available", default=0))


def _capacity(available: Mapping[Hashable, int], community: Iterable[Hashable]) -> int:
    return int(sum(available[node] for node in community))


def community_capacity(resource_graph: nx.Graph, community: Set[Hashable]) -> int:
    """Total available computing qubits inside a community."""
    return _capacity(_availability(resource_graph), community)


def _community_score(
    adjacency: Adjacency,
    available: Mapping[Hashable, int],
    community: Set[Hashable],
    required_qubits: int,
) -> float:
    """Rank communities: prefer tight fits with strong internal connectivity.

    A community that barely fits the job wastes fewer qubits (objective 2 of
    the placement formulation); internal edge weight rewards short network
    distances between the selected QPUs.
    """
    capacity = _capacity(available, community)
    if capacity < required_qubits:
        return float("-inf")
    internal_weight = 0.0
    counted: Set[Hashable] = set()
    for node in community:
        for neighbor, data in adjacency[node].items():
            if neighbor in community and neighbor not in counted:
                internal_weight += float(data.get("weight", 1.0))  # detlint: ignore[DET003] resource-graph edge weights are whole numbers (1 + free qubits), so this sum is exact in any order
        counted.add(node)
    slack = capacity - required_qubits
    return internal_weight / (1.0 + slack)


def _expand(
    adjacency: Adjacency,
    available: Mapping[Hashable, int],
    community: Set[Hashable],
    required_qubits: int,
) -> Set[Hashable]:
    selected = set(community)
    capacity = _capacity(available, selected)
    while capacity < required_qubits:
        # Insertion order follows the iteration order of ``selected``; it
        # breaks ties between equally attached neighbours below.
        frontier: Dict[Hashable, float] = {}
        for node in selected:
            for neighbor, data in adjacency[node].items():
                if neighbor in selected:
                    continue
                frontier[neighbor] = frontier.get(neighbor, 0.0) + float(
                    data.get("weight", 1.0)
                )
        if not frontier:
            raise CommunityError(
                f"cannot expand community to {required_qubits} qubits: "
                f"only {capacity} reachable"
            )
        # Prefer the neighbour with the strongest attachment, then most capacity.
        best = max(frontier, key=lambda n: (frontier[n], available[n]))
        selected.add(best)
        capacity += available[best]
    return selected


def expand_community(
    resource_graph: nx.Graph,
    community: Set[Hashable],
    required_qubits: int,
) -> Set[Hashable]:
    """Grow a community by adjacent QPUs until it can hold ``required_qubits``."""
    return _expand(
        _adjacency(resource_graph),
        _availability(resource_graph),
        community,
        required_qubits,
    )


def select_qpu_community(
    resource_graph: nx.Graph,
    required_qubits: int,
    min_qpus: int = 1,
    seed: Optional[int] = None,
    communities: Optional[List[Set[Hashable]]] = None,
) -> List[Hashable]:
    """Pick the QPU set that will host a partitioned circuit.

    The detected communities are scored by fit and connectivity; the best one
    that can hold ``required_qubits`` (expanding over the topology when none is
    large enough) is returned, constrained to contain at least ``min_qpus``
    QPUs with free capacity.

    ``communities`` short-circuits the Louvain step with a precomputed
    result for the same ``(resource_graph, seed)`` pair -- the hook
    :class:`repro.placement.PlacementContext` uses to run community detection
    once per cloud resource version instead of once per placement candidate.
    """
    if required_qubits <= 0:
        raise ValueError("required_qubits must be positive")
    adjacency = _adjacency(resource_graph)
    available = _availability(resource_graph)
    total_available = _capacity(available, available)
    if total_available < required_qubits:
        raise CommunityError(
            f"cloud has only {total_available} free qubits, need {required_qubits}"
        )

    if communities is None:
        communities = louvain_communities(resource_graph, seed=seed)
    scored = sorted(
        communities,
        key=lambda c: _community_score(adjacency, available, c, required_qubits),
        reverse=True,
    )
    best: Optional[Set[Hashable]] = None
    for community in scored:
        if _capacity(available, community) >= required_qubits:
            best = set(community)
            break
    if best is None:
        # No single community is big enough: expand the best-connected one.
        seed_community = max(communities, key=lambda c: _capacity(available, c))
        best = _expand(adjacency, available, set(seed_community), required_qubits)

    # Guarantee a minimum number of usable QPUs for the requested partition count.
    usable = [n for n in best if available[n] > 0]
    while len(usable) < min_qpus:
        grown = _expand(adjacency, available, best, _capacity(available, best) + 1)
        if grown == best:
            break
        best = grown
        usable = [n for n in best if available[n] > 0]

    return sorted(best)
