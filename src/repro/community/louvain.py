"""Louvain community detection (Blondel et al.) for weighted graphs.

A self-contained implementation of the two-phase Louvain heuristic: local
moving of nodes between communities to greedily maximise modularity, followed
by community aggregation, repeated until modularity stops improving.  Both
phases are the hot loop of CloudQC's placement-attempt pipeline (they run for
every community-detection cache miss), so they work on Python lists indexed
by node position -- numpy scalar indexing costs more than the arithmetic on
resource graphs of 6-20 QPUs -- with one ``{neighbour: weight}`` dict per
node.  Every row keeps the adjacency order a networkx graph built edge by
edge would have, so weights accumulate and ties resolve exactly as in the
networkx formulation, RNG call sequence included.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

import networkx as nx
import numpy as np

#: One adjacency row per node: ``{neighbour index: weight}`` in insertion order.
Rows = List[Dict[int, float]]


def louvain_communities(
    graph: nx.Graph,
    seed: Optional[int] = None,
    resolution: float = 1.0,
    max_levels: int = 10,
) -> List[Set[Hashable]]:
    """Detect communities with the Louvain method.

    Returns a list of disjoint node sets covering the graph, ordered by
    decreasing size.  ``resolution`` > 1 favours smaller communities.
    """
    if graph.number_of_nodes() == 0:
        return []
    rng = np.random.default_rng(seed)
    nodes = list(graph)
    rows = _normalise(graph, nodes)
    # membership maps each original node's position to its community in the
    # current level; aggregated levels are indexed by the dense community
    # ids of the level below.
    membership = list(range(len(nodes)))

    for _ in range(max_levels):
        local = _local_moving(rows, rng, resolution)
        count = max(local) + 1
        if count == len(rows):
            break  # no merge happened at this level
        membership = [local[member] for member in membership]
        rows = _aggregate(rows, local, count)
        if count <= 1:
            break

    groups: Dict[int, Set[Hashable]] = {}
    for node, community in zip(nodes, membership):
        groups.setdefault(community, set()).add(node)
    return sorted(groups.values(), key=len, reverse=True)


def _normalise(graph: nx.Graph, nodes: List[Hashable]) -> Rows:
    """Rows of ``graph`` with ``float`` weights, added edge by edge.

    Edges arrive in networkx edge order (each once, from the endpoint
    iterated first), so the rows have the order a networkx graph rebuilt
    from ``graph.edges()`` would have.
    """
    index = {node: i for i, node in enumerate(nodes)}
    rows: Rows = [{} for _ in nodes]
    for u, (_, adjacent) in enumerate(graph.adjacency()):
        for other, data in adjacent.items():
            v = index[other]
            if v >= u:
                weight = float(data.get("weight", 1.0))
                rows[u][v] = weight
                rows[v][u] = weight
    return rows


def _local_moving(
    rows: Rows, rng: np.random.Generator, resolution: float
) -> List[int]:
    """Phase 1: move nodes between communities while modularity improves.

    Returns each node's community as a dense id (the surviving community
    ids renumbered in increasing order).  The per-sweep shuffle consumes the RNG
    as a length-n list shuffle, and the modularity-gain expressions keep
    their operation order, so seeded community structure is reproducible.
    """
    n = len(rows)
    # detlint: ignore[DET003] rows hold networkx edge order, fixed by the deterministic graph build; re-sorting this float sum would change bits pinned by golden tests
    m = sum(w for u, row in enumerate(rows) for v, w in row.items() if v >= u)
    if m == 0:
        return list(range(n))

    # Weighted degree as networkx computes it: the row sum, plus the
    # self-loop weight once more.
    degree = [
        # detlint: ignore[DET003] rows hold networkx adjacency order, fixed by the deterministic graph build; re-sorting this float sum would change bits pinned by golden tests
        float(sum(row.values()) + row.get(u, 0))
        for u, row in enumerate(rows)
    ]
    community = list(range(n))
    community_degree = list(degree)
    two_m = 2.0 * m

    improved = True
    iterations = 0
    while improved and iterations < 50:
        improved = False
        iterations += 1
        order = list(range(n))
        rng.shuffle(order)
        for u in order:
            current = community[u]
            deg_u = degree[u]
            # Weight from node to each neighbouring community, in first-seen
            # order.
            links: Dict[int, float] = {}
            for v, weight in rows[u].items():
                if v != u:
                    c = community[v]
                    links[c] = links.get(c, 0.0) + weight
            # Remove node from its community.
            community_degree[current] -= deg_u
            baseline = links.get(current, 0.0) - resolution * (
                community_degree[current] * deg_u / two_m
            )
            best_community = current
            best_gain = 0.0
            for candidate, weight in links.items():
                gain = weight - resolution * community_degree[candidate] * deg_u / two_m
                if gain - baseline > best_gain + 1e-12:
                    best_gain = gain - baseline
                    best_community = candidate
            community[u] = best_community
            community_degree[best_community] += deg_u
            if best_community != current:
                improved = True
    # Relabel community ids to be dense.
    # detlint: ignore[DET003] community ids are distinct ints; sorted() output is canonical regardless of set order
    relabel = {c: i for i, c in enumerate(sorted(set(community)))}
    return [relabel[c] for c in community]


def _aggregate(rows: Rows, community: List[int], count: int) -> Rows:
    """Phase 2: collapse communities into super-nodes.

    Intra-community weight is preserved as a self-loop on the super-node, so
    the next level's modularity gains account for already-merged structure
    (dropping it makes Louvain over-merge into one giant community).  Edges
    are folded in networkx edge order, as adding them to a fresh graph one
    by one would.
    """
    aggregated: Rows = [{} for _ in range(count)]
    for u, row in enumerate(rows):
        cu = community[u]
        for v, weight in row.items():
            if v < u:
                continue
            cv = community[v]
            total = aggregated[cu].get(cv)
            total = weight if total is None else total + weight
            aggregated[cu][cv] = total
            aggregated[cv][cu] = total
    return aggregated
