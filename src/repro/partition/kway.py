"""Multilevel k-way graph partitioning with a tunable imbalance factor.

``partition_graph(graph, num_parts, imbalance)`` is the METIS-replacement entry
point CloudQC's circuit-placement stage calls (Algorithm 1 line 8).  It
implements the classic multilevel scheme:

1. *Coarsen* the graph by heavy-edge matching until it is small.
2. Compute an *initial partition* of the coarse graph by greedy region growing
   from spread-out seeds.
3. *Uncoarsen*: project the partition back level by level, running greedy
   boundary refinement at every level.

Every phase runs in the index space of a
:class:`~repro.partition.csr.CSRGraph` (see that module for why).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, Union

import networkx as nx

from .coarsen import coarsen
from .csr import CSRGraph, as_csr
from .refine import _rebalance, _refine


class PartitionError(ValueError):
    """Raised when the requested partition is infeasible."""


def _spread_seeds(graph: CSRGraph, num_parts: int) -> List[int]:
    """Pick ``num_parts`` seeds that are pairwise far apart (k-center greedy).

    Each next seed is the node farthest in hops from the seeds so far (ties
    to the heavier weighted degree, then node order).  Seeds sit at distance
    0 and every other node at 1 or more, so it is never a seed again.
    """
    n = graph.number_of_nodes()
    if n <= num_parts:
        return list(range(n))
    degrees = graph.degrees
    # Start from the highest-degree-weight node so dense regions get a seed.
    seeds = [max(range(n), key=degrees.__getitem__)]
    distance = graph.hops(seeds[0])
    while len(seeds) < num_parts:
        candidate = max(range(n), key=lambda u: (distance[u], degrees[u]))
        seeds.append(candidate)
        distance = [
            d if d <= hop else hop
            for d, hop in zip(distance, graph.hops(candidate))
        ]
    return seeds


def _initial_partition(
    graph: CSRGraph, num_parts: int, max_part_weight: float
) -> Tuple[List[int], List[int]]:
    """Greedy region growing from spread-out seeds, respecting balance.

    Returns every node's part and the order nodes were assigned in (the key
    order of the assignment :func:`partition_graph` returns).
    """
    labels = graph.labels
    node_weights = graph.node_weights
    neighbors, edge_weights = graph.neighbors, graph.weights
    part = [-1] * len(labels)
    order: List[int] = []
    weights = [0.0] * num_parts
    # Per grown part: connection weight of each unassigned neighbour of its
    # region, kept up to date as members join.  A member adds its row when
    # it joins, so an entry is created and summed in member order, then
    # adjacency order -- the order a rescan of the region would use -- and
    # is dropped once its node is assigned.
    pending: Dict[int, Dict[int, float]] = {}

    def join(u: int, p: int) -> None:
        part[u] = p
        order.append(u)
        weights[p] += node_weights[u]
        for candidates in pending.values():
            candidates.pop(u, None)
        candidates = pending.setdefault(p, {})
        for v, weight in zip(neighbors[u], edge_weights[u]):
            if part[v] < 0:
                candidates[v] = candidates.get(v, 0.0) + weight

    seeds = _spread_seeds(graph, num_parts)
    for p, seed in enumerate(seeds):
        join(seed, p)

    # Kept as a set of labels: its iteration order breaks the leftover
    # weight ties below, so it must not depend on the index renumbering.
    unassigned = set(labels) - {labels[seed] for seed in seeds}
    progress = True
    while unassigned and progress:
        progress = False
        # Grow the lightest part first so parts stay balanced.
        for p in sorted(range(num_parts), key=weights.__getitem__):
            candidates = pending.get(p)
            if candidates is None:
                continue
            picked = None
            for v in sorted(candidates, key=candidates.__getitem__, reverse=True):
                if weights[p] + node_weights[v] <= max_part_weight:
                    picked = v
                    break
            if picked is None:
                continue
            join(picked, p)
            unassigned.discard(labels[picked])
            progress = True

    # Disconnected or capacity-stranded leftovers go to the lightest feasible part.
    index = graph.index
    for label in sorted(unassigned, key=lambda label: -node_weights[index[label]]):
        u = index[label]
        node_weight = node_weights[u]
        feasible = [
            (weight, p)
            for p, weight in enumerate(weights)
            if weight + node_weight <= max_part_weight
        ]
        p = min(feasible)[1] if feasible else min(range(num_parts), key=weights.__getitem__)
        part[u] = p
        order.append(u)
        weights[p] += node_weight
    return part, order


def partition_graph(
    graph: Union[nx.Graph, CSRGraph],
    num_parts: int,
    imbalance: float = 0.05,
    seed: Optional[int] = None,
    coarsen_target: int = 60,
) -> Dict[Hashable, int]:
    """Partition ``graph`` into ``num_parts`` parts minimising the edge cut.

    Parameters
    ----------
    graph:
        Weighted undirected graph, networkx or its
        :class:`~repro.partition.csr.CSRGraph` form; node weight attribute
        ``weight`` defaults to 1, edge weight attribute ``weight`` defaults
        to 1.
    num_parts:
        Number of parts (k).  ``k = 1`` returns the trivial partition.
    imbalance:
        Allowed relative imbalance ε: every part's weight is at most
        ``(1 + ε) * total / k`` (plus the weight of a single node, since a
        node is never split).
    seed:
        Randomisation seed for reproducible partitions.

    Returns
    -------
    dict mapping every node to its part id in ``range(num_parts)``.
    """
    if num_parts < 1:
        raise PartitionError("num_parts must be at least 1")
    if imbalance < 0:
        raise PartitionError("imbalance factor cannot be negative")
    csr = as_csr(graph)
    labels = csr.labels
    if not labels:
        return {}
    if num_parts == 1:
        return {label: 0 for label in labels}
    if num_parts > len(labels):
        raise PartitionError(
            f"cannot split {len(labels)} nodes into {num_parts} non-empty parts"
        )

    node_weights = csr.node_weights
    max_part_weight = (1.0 + imbalance) * sum(node_weights) / num_parts
    # A part must always be able to hold at least one node.
    max_part_weight = max(max_part_weight, max(node_weights))

    # Coarsen, keeping the part-weight cap fixed (weights are preserved).
    levels = coarsen(csr, target_size=max(coarsen_target, 4 * num_parts), seed=seed)
    coarsest = levels[-1].graph if levels else csr

    part, order = _initial_partition(coarsest, num_parts, max_part_weight)
    _refine(coarsest, part, num_parts, max_part_weight, seed=seed)

    # Uncoarsen: project through the hierarchy, refining at each level.
    hierarchy = [csr] + [level.graph for level in levels]
    for level_index in range(len(levels) - 1, -1, -1):
        finer = hierarchy[level_index]
        projection = levels[level_index].projection
        part = [part[projection[label]] for label in finer.labels]
        order = range(len(part))
        _rebalance(finer, part, order, num_parts, max_part_weight)
        _refine(finer, part, num_parts, max_part_weight, seed=seed)

    _rebalance(csr, part, order, num_parts, max_part_weight)
    return {labels[u]: part[u] for u in order}
