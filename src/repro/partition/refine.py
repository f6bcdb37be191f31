"""Boundary refinement of a k-way partition (greedy Kernighan-Lin / FM style).

Given an assignment, repeatedly move boundary nodes to the adjacent part that
yields the largest edge-cut gain without violating the balance constraint.
Only strictly positive gains are taken: a node whose best move gains nothing
stays put, and no move is ever undone.  Refinement stops after a pass without
a move, or after a pass limit.

The kernels (:func:`_refine`, :func:`_rebalance`) work in the index space of
a :class:`~repro.partition.csr.CSRGraph` on a per-node part list;
:func:`refine` and :func:`rebalance` wrap them for label-keyed assignments.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from .csr import CSRGraph, as_csr


def _part_weights(graph: CSRGraph, part: Sequence[int], num_parts: int) -> Dict[int, float]:
    """Total node weight per part, summed in node order (parts 0..k-1 always present)."""
    weights: Dict[int, float] = {p: 0.0 for p in range(num_parts)}
    for p, weight in zip(part, graph.node_weights):
        weights[p] = weights.get(p, 0.0) + weight
    return weights


def _refine(
    graph: CSRGraph,
    part: List[int],
    num_parts: int,
    max_part_weight: float,
    max_passes: int = 8,
    seed: Optional[int] = None,
) -> None:
    """Greedy boundary refinement of ``part`` in place."""
    rng = np.random.default_rng(seed)
    node_weights = graph.node_weights
    neighbors, edge_weights = graph.neighbors, graph.weights
    weights = _part_weights(graph, part, num_parts)

    for _ in range(max_passes):
        improved = False
        order = list(range(len(part)))
        rng.shuffle(order)
        for u in order:
            current = part[u]
            row = neighbors[u]
            for v in row:
                if part[v] != current:
                    break
            else:
                continue  # interior node: no neighbouring part to move to
            # Weight from u to each adjacent part, added in adjacency order.
            links: Dict[int, float] = {}
            for v, weight in zip(row, edge_weights[u]):
                p = part[v]
                links[p] = links.get(p, 0.0) + weight
            # Equal gains go to the first candidate in set iteration order.
            # Adding the parts one by one in adjacency order fixes that order
            # (set(links) would presize the table and could reorder it).
            candidates = {p for p in links} - {current}
            node_weight = node_weights[u]
            internal = links.get(current, 0.0)
            best_part = None
            best_gain = 0.0
            for p in candidates:
                if weights[p] + node_weight > max_part_weight:
                    continue
                gain = links[p] - internal
                if gain > best_gain:
                    best_gain = gain
                    best_part = p
            if best_part is not None:
                part[u] = best_part
                weights[current] -= node_weight
                weights[best_part] += node_weight
                improved = True
        if not improved:
            break


def _rebalance(
    graph: CSRGraph,
    part: List[int],
    order: Sequence[int],
    num_parts: int,
    max_part_weight: float,
) -> None:
    """Force ``part`` under the balance constraint in place.

    ``order`` is the node order of the label-keyed assignment ``part``
    stands for; members of an overweight part are scanned in it.
    """
    node_weights = graph.node_weights
    neighbors, edge_weights = graph.neighbors, graph.weights
    weights = _part_weights(graph, part, num_parts)
    for p in sorted(weights, key=weights.__getitem__, reverse=True):
        while weights[p] > max_part_weight:
            members = [u for u in order if part[u] == p]
            if len(members) <= 1:
                break
            # Pick the member with the least internal connectivity.
            u = min(
                members,
                key=lambda m: sum(
                    w for v, w in zip(neighbors[m], edge_weights[m]) if part[v] == p
                ),
            )
            node_weight = node_weights[u]
            destinations = sorted((w, q) for q, w in weights.items() if q != p)
            moved = False
            for _, destination in destinations:
                if weights[destination] + node_weight <= max_part_weight:
                    part[u] = destination
                    weights[p] -= node_weight
                    weights[destination] += node_weight
                    moved = True
                    break
            if not moved:
                break


def _as_parts(
    graph: CSRGraph, assignment: Mapping[Hashable, int]
) -> Tuple[List[int], List[int]]:
    """Per-node part list and the assignment's key order, in index space."""
    index = graph.index
    part = [assignment[label] for label in graph.labels]
    return part, [index[label] for label in assignment]


def refine(
    graph: Union[nx.Graph, CSRGraph],
    assignment: Dict[Hashable, int],
    num_parts: int,
    max_part_weight: float,
    max_passes: int = 8,
    seed: Optional[int] = None,
) -> Dict[Hashable, int]:
    """Greedy boundary refinement; returns a new (improved) assignment."""
    csr = as_csr(graph)
    part, order = _as_parts(csr, assignment)
    _refine(csr, part, num_parts, max_part_weight, max_passes, seed)
    labels = csr.labels
    return {labels[u]: part[u] for u in order}


def rebalance(
    graph: Union[nx.Graph, CSRGraph],
    assignment: Dict[Hashable, int],
    num_parts: int,
    max_part_weight: float,
) -> Dict[Hashable, int]:
    """Force the partition under the balance constraint.

    Overweight parts shed their least-connected nodes to the lightest part
    with room.  Used after projection when coarse node weights make a part
    overshoot the limit.
    """
    csr = as_csr(graph)
    part, order = _as_parts(csr, assignment)
    _rebalance(csr, part, order, num_parts, max_part_weight)
    labels = csr.labels
    return {labels[u]: part[u] for u in order}
