"""Multilevel coarsening via heavy-edge matching.

The coarsening phase repeatedly contracts a maximal matching that prefers heavy
edges, producing a hierarchy of smaller graphs whose partitions can be
projected back to the original graph.  This is the same scheme METIS uses.
Every level is a :class:`~repro.partition.csr.CSRGraph` whose rows keep the
adjacency order a networkx graph built edge by edge would have, so the
partitioner's kernels see the same order on every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from .csr import CSRGraph, as_csr


@dataclass
class CoarseningLevel:
    """One level of the multilevel hierarchy."""

    graph: CSRGraph
    #: fine node -> coarse node of this level's graph.
    projection: Dict[Hashable, int]


def _match(graph: CSRGraph, rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Index pairs of the heavy-edge matching (see :func:`heavy_edge_matching`)."""
    order = list(range(graph.number_of_nodes()))
    rng.shuffle(order)
    matched = [False] * len(order)
    neighbors, weights = graph.neighbors, graph.weights
    pairs: List[Tuple[int, int]] = []
    for u in order:
        if matched[u]:
            continue
        best = -1
        best_weight = -1.0
        for v, weight in zip(neighbors[u], weights[u]):
            if matched[v] or v == u:
                continue
            if weight > best_weight:
                best_weight = weight
                best = v
        if best >= 0:
            matched[u] = matched[best] = True
            pairs.append((u, best))
    return pairs


def heavy_edge_matching(
    graph: Union[nx.Graph, CSRGraph], rng: np.random.Generator
) -> List[Tuple[Hashable, Hashable]]:
    """Greedy maximal matching preferring the heaviest incident edge.

    Nodes are visited in random order (randomisation decorrelates successive
    levels); each unmatched node is matched with its heaviest unmatched
    neighbour.
    """
    csr = as_csr(graph)
    labels = csr.labels
    return [(labels[a], labels[b]) for a, b in _match(csr, rng)]


def _contract(graph: CSRGraph, pairs: List[Tuple[int, int]]) -> CoarseningLevel:
    """Contract index pairs; coarse ids follow the pairs, then unmatched nodes."""
    node_weights = graph.node_weights
    coarse_of = [-1] * len(node_weights)
    coarse_weights: List[float] = []
    for a, b in pairs:
        coarse_of[a] = coarse_of[b] = len(coarse_weights)
        coarse_weights.append(node_weights[a] + node_weights[b])
    for u, weight in enumerate(node_weights):
        if coarse_of[u] < 0:
            coarse_of[u] = len(coarse_weights)
            coarse_weights.append(weight)
    # Edges arrive in networkx edge order (row u, neighbours v >= u); a coarse
    # edge is created by its first fine edge, in both endpoints' rows, and
    # accumulates the later ones in arrival order.
    rows: List[Dict[int, float]] = [{} for _ in coarse_weights]
    for u, (row, row_weights) in enumerate(zip(graph.neighbors, graph.weights)):
        cu = coarse_of[u]
        coarse_row = rows[cu]
        for v, weight in zip(row, row_weights):
            if v < u:
                continue
            cv = coarse_of[v]
            if cu == cv:
                continue
            total = coarse_row.get(cv)
            total = weight if total is None else total + weight
            coarse_row[cv] = total
            rows[cv][cu] = total
    coarse = CSRGraph(
        range(len(coarse_weights)),
        [list(row) for row in rows],
        [list(row.values()) for row in rows],
        coarse_weights,
    )
    labels = graph.labels
    return CoarseningLevel(
        graph=coarse,
        projection={labels[u]: c for u, c in enumerate(coarse_of)},
    )


def contract(
    graph: Union[nx.Graph, CSRGraph], matching: List[Tuple[Hashable, Hashable]]
) -> CoarseningLevel:
    """Contract each matched pair into one coarse node, merging weights."""
    csr = as_csr(graph)
    index = csr.index
    return _contract(csr, [(index[a], index[b]) for a, b in matching])


def coarsen(
    graph: Union[nx.Graph, CSRGraph],
    target_size: int,
    seed: Optional[int] = None,
    max_levels: int = 30,
) -> List[CoarseningLevel]:
    """Build the coarsening hierarchy down to roughly ``target_size`` nodes.

    Returns the list of levels from finest to coarsest; each level's
    ``projection`` maps the previous graph's nodes onto its own.  The input
    graph itself is not included.  Coarsening stops early when a level shrinks
    the graph by less than 10% (a sign of a star-like structure).
    """
    levels: List[CoarseningLevel] = []
    current = as_csr(graph)
    if current.number_of_nodes() <= max(target_size, 2):
        return levels  # already small: skip seeding a generator nobody draws from
    rng = np.random.default_rng(seed)
    for _ in range(max_levels):
        if current.number_of_nodes() <= max(target_size, 2):
            break
        pairs = _match(current, rng)
        if not pairs:
            break
        level = _contract(current, pairs)
        if level.graph.number_of_nodes() >= 0.9 * current.number_of_nodes():
            break
        levels.append(level)
        current = level.graph
    return levels
