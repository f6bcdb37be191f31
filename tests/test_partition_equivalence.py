"""A/B equivalence of the array-backed placement kernels and their networkx originals.

The ``ref_*`` functions below are verbatim copies of the networkx
formulations of ``partition_graph`` (with ``coarsen``, ``refine`` and
``rebalance``), ``graph_center`` and ``louvain_communities`` that the
index-space kernels replaced.  Hypothesis drives both over random weighted
graphs -- non-unit node weights, isolated nodes, disconnected components,
label sets with holes inserted in random order, sizes on both sides of the
coarsening threshold ``max(60, 4k)`` -- and asserts equal outputs, key order
included: the placement pipeline reads a partition's key order (part sizes,
and through them the part-to-QPU mapping), so order is part of the contract.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import graph_center, louvain_communities
from repro.partition import coarsen, partition_graph, rebalance, refine


# ----------------------------------------------------------------------
# Reference: the networkx formulation (kept verbatim, comments trimmed)
# ----------------------------------------------------------------------
def ref_node_weight(graph: nx.Graph, node: Hashable) -> float:
    return float(graph.nodes[node].get("weight", 1.0))


def ref_part_weights(graph, assignment, num_parts):
    weights = {part: 0.0 for part in range(num_parts)}
    for node in graph.nodes():
        weights.setdefault(assignment[node], 0.0)
        weights[assignment[node]] += float(graph.nodes[node].get("weight", 1.0))
    return weights


def ref_heavy_edge_matching(graph, rng):
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    matched: set = set()
    matching = []
    for node in nodes:
        if node in matched:
            continue
        best = None
        best_weight = -1.0
        for neighbor, data in graph[node].items():
            if neighbor in matched or neighbor == node:
                continue
            weight = float(data.get("weight", 1.0))
            if weight > best_weight:
                best_weight = weight
                best = neighbor
        if best is not None:
            matched.add(node)
            matched.add(best)
            matching.append((node, best))
    return matching


def ref_contract(graph, matching):
    projection = {}
    coarse = nx.Graph()
    next_id = 0
    for a, b in matching:
        coarse.add_node(
            next_id, weight=ref_node_weight(graph, a) + ref_node_weight(graph, b)
        )
        projection[a] = next_id
        projection[b] = next_id
        next_id += 1
    for node in graph.nodes():
        if node not in projection:
            coarse.add_node(next_id, weight=ref_node_weight(graph, node))
            projection[node] = next_id
            next_id += 1
    for a, b, data in graph.edges(data=True):
        ca, cb = projection[a], projection[b]
        if ca == cb:
            continue
        weight = float(data.get("weight", 1.0))
        if coarse.has_edge(ca, cb):
            coarse[ca][cb]["weight"] += weight
        else:
            coarse.add_edge(ca, cb, weight=weight)
    return coarse, projection


def ref_coarsen(graph, target_size, seed=None, max_levels=30):
    rng = np.random.default_rng(seed)
    levels = []
    current = graph
    for _ in range(max_levels):
        if current.number_of_nodes() <= max(target_size, 2):
            break
        matching = ref_heavy_edge_matching(current, rng)
        if not matching:
            break
        coarse, projection = ref_contract(current, matching)
        if coarse.number_of_nodes() >= 0.9 * current.number_of_nodes():
            break
        levels.append((coarse, projection))
        current = coarse
    return levels


def ref_gain(graph, assignment, node, target_part):
    internal = 0.0
    external = 0.0
    current = assignment[node]
    for neighbor, data in graph[node].items():
        weight = float(data.get("weight", 1.0))
        if assignment[neighbor] == current:
            internal += weight
        elif assignment[neighbor] == target_part:
            external += weight
    return external - internal


def ref_refine(graph, assignment, num_parts, max_part_weight, max_passes=8, seed=None):
    rng = np.random.default_rng(seed)
    assignment = dict(assignment)
    weights = ref_part_weights(graph, assignment, num_parts)
    for _ in range(max_passes):
        improved = False
        nodes = list(graph.nodes())
        rng.shuffle(nodes)
        for node in nodes:
            current = assignment[node]
            candidates = {assignment[n] for n in graph[node]} - {current}
            if not candidates:
                continue
            node_weight = ref_node_weight(graph, node)
            best_part = None
            best_gain = 0.0
            for part in candidates:
                if weights[part] + node_weight > max_part_weight:
                    continue
                gain = ref_gain(graph, assignment, node, part)
                if gain > best_gain:
                    best_gain = gain
                    best_part = part
            if best_part is not None:
                assignment[node] = best_part
                weights[current] -= node_weight
                weights[best_part] += node_weight
                improved = True
        if not improved:
            break
    return assignment


def ref_rebalance(graph, assignment, num_parts, max_part_weight):
    assignment = dict(assignment)
    weights = ref_part_weights(graph, assignment, num_parts)
    for part in sorted(weights, key=weights.get, reverse=True):
        while weights[part] > max_part_weight:
            members = [n for n, p in assignment.items() if p == part]
            if len(members) <= 1:
                break

            def internal_weight(node):
                return sum(
                    float(d.get("weight", 1.0))
                    for n, d in graph[node].items()
                    if assignment[n] == part
                )

            node = min(members, key=internal_weight)
            node_weight = ref_node_weight(graph, node)
            destinations = sorted((w, p) for p, w in weights.items() if p != part)
            moved = False
            for _, destination in destinations:
                if weights[destination] + node_weight <= max_part_weight:
                    assignment[node] = destination
                    weights[part] -= node_weight
                    weights[destination] += node_weight
                    moved = True
                    break
            if not moved:
                break
    return assignment


def ref_spread_seeds(graph, num_parts, rng):
    nodes = list(graph.nodes())
    if len(nodes) <= num_parts:
        return nodes

    def degree_weight(node):
        return sum(float(d.get("weight", 1.0)) for _, d in graph[node].items())

    seeds = [max(nodes, key=degree_weight)]
    lengths = nx.single_source_shortest_path_length(graph, seeds[0])
    distance = {node: lengths.get(node, len(nodes)) for node in nodes}
    while len(seeds) < num_parts:
        candidate = max(nodes, key=lambda n: (distance[n], degree_weight(n)))
        if candidate in seeds:
            remaining = [n for n in nodes if n not in seeds]
            candidate = rng.choice(remaining)
        seeds.append(candidate)
        lengths = nx.single_source_shortest_path_length(graph, candidate)
        for node in nodes:
            distance[node] = min(distance[node], lengths.get(node, len(nodes)))
    return seeds


def ref_initial_partition(graph, num_parts, max_part_weight, rng):
    assignment = {}
    weights = {part: 0.0 for part in range(num_parts)}
    seeds = ref_spread_seeds(graph, num_parts, rng)
    frontiers = {}
    for part, seed in enumerate(seeds):
        assignment[seed] = part
        weights[part] += ref_node_weight(graph, seed)
        frontiers[part] = [seed]
    unassigned = set(graph.nodes()) - set(assignment)
    progress = True
    while unassigned and progress:
        progress = False
        for part in sorted(weights, key=weights.get):
            if part not in frontiers:
                continue
            candidates = {}
            for node in frontiers[part]:
                for neighbor, data in graph[node].items():
                    if neighbor in unassigned:
                        candidates[neighbor] = candidates.get(neighbor, 0.0) + float(
                            data.get("weight", 1.0)
                        )
            picked = None
            for node in sorted(candidates, key=candidates.get, reverse=True):
                if weights[part] + ref_node_weight(graph, node) <= max_part_weight:
                    picked = node
                    break
            if picked is None:
                continue
            assignment[picked] = part
            weights[part] += ref_node_weight(graph, picked)
            frontiers[part].append(picked)
            unassigned.discard(picked)
            progress = True
    for node in sorted(unassigned, key=lambda n: -ref_node_weight(graph, n)):
        feasible = sorted(
            (w, p)
            for p, w in weights.items()
            if w + ref_node_weight(graph, node) <= max_part_weight
        )
        part = feasible[0][1] if feasible else min(weights, key=weights.get)
        assignment[node] = part
        weights[part] += ref_node_weight(graph, node)
    return assignment


def ref_partition_graph(graph, num_parts, imbalance=0.05, seed=None, coarsen_target=60):
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    if num_parts == 1:
        return {node: 0 for node in nodes}
    rng = np.random.default_rng(seed)
    total = sum(ref_node_weight(graph, node) for node in graph.nodes())
    max_node_weight = max(ref_node_weight(graph, node) for node in nodes)
    max_part_weight = (1.0 + imbalance) * total / num_parts
    max_part_weight = max(max_part_weight, max_node_weight)
    levels = ref_coarsen(graph, target_size=max(coarsen_target, 4 * num_parts), seed=seed)
    coarsest = levels[-1][0] if levels else graph
    assignment = ref_initial_partition(coarsest, num_parts, max_part_weight, rng)
    assignment = ref_refine(coarsest, assignment, num_parts, max_part_weight, seed=seed)
    hierarchy = [graph] + [coarse for coarse, _ in levels]
    for level_index in range(len(levels) - 1, -1, -1):
        finer = hierarchy[level_index]
        projection = levels[level_index][1]
        assignment = {node: assignment[projection[node]] for node in finer.nodes()}
        assignment = ref_rebalance(finer, assignment, num_parts, max_part_weight)
        assignment = ref_refine(finer, assignment, num_parts, max_part_weight, seed=seed)
    return ref_rebalance(graph, assignment, num_parts, max_part_weight)


def ref_graph_center(graph, nodes=None):
    subgraph = graph if nodes is None else graph.subgraph(nodes)
    if subgraph.number_of_nodes() == 0:
        raise ValueError("cannot compute the center of an empty graph")
    if subgraph.number_of_nodes() == 1:
        return next(iter(subgraph.nodes()))
    if not nx.is_connected(subgraph):
        largest = max(nx.connected_components(subgraph), key=len)
        subgraph = subgraph.subgraph(largest)
    eccentricity = nx.eccentricity(subgraph)
    return min(eccentricity, key=lambda node: (eccentricity[node], str(node)))


def ref_louvain_communities(graph, seed=None, resolution=1.0, max_levels=10):
    if graph.number_of_nodes() == 0:
        return []
    rng = np.random.default_rng(seed)
    membership = {node: node for node in graph.nodes()}
    working = nx.Graph()
    working.add_nodes_from(graph.nodes())
    for a, b, data in graph.edges(data=True):
        working.add_edge(a, b, weight=float(data.get("weight", 1.0)))
    for _ in range(max_levels):
        local = ref_local_moving(working, rng, resolution)
        if len(set(local.values())) == working.number_of_nodes():
            break
        membership = {node: local[membership[node]] for node in membership}
        aggregated = nx.Graph()
        aggregated.add_nodes_from(set(local.values()))
        for a, b, data in working.edges(data=True):
            ca, cb = local[a], local[b]
            weight = float(data.get("weight", 1.0))
            if aggregated.has_edge(ca, cb):
                aggregated[ca][cb]["weight"] += weight
            else:
                aggregated.add_edge(ca, cb, weight=weight)
        working = aggregated
        if working.number_of_nodes() <= 1:
            break
    groups: Dict[int, Set[Hashable]] = {}
    for node, community in membership.items():
        groups.setdefault(community, set()).add(node)
    return sorted(groups.values(), key=len, reverse=True)


def ref_local_moving(graph, rng, resolution):
    m = sum(float(d.get("weight", 1.0)) for _, _, d in graph.edges(data=True))
    if m == 0:
        return {node: index for index, node in enumerate(graph.nodes())}
    nodes = list(graph.nodes())
    n = len(nodes)
    index_of = {node: index for index, node in enumerate(nodes)}
    starts = np.empty(n + 1, dtype=np.int64)
    neighbor_list: List[int] = []
    weight_list: List[float] = []
    starts[0] = 0
    for u, node in enumerate(nodes):
        for neighbor, data in graph[node].items():
            neighbor_list.append(index_of[neighbor])
            weight_list.append(float(data.get("weight", 1.0)))
        starts[u + 1] = len(neighbor_list)
    neighbors = np.asarray(neighbor_list, dtype=np.int64)
    weights = np.asarray(weight_list, dtype=np.float64)
    degrees = {node: float(value) for node, value in graph.degree(weight="weight")}
    degree = np.array([degrees[node] for node in nodes], dtype=np.float64)
    community = np.arange(n, dtype=np.int64)
    community_degree = degree.copy()
    comm_weight = np.zeros(n, dtype=np.float64)
    stamp = np.full(n, -1, dtype=np.int64)
    two_m = 2.0 * m
    improved = True
    iterations = 0
    token = 0
    while improved and iterations < 50:
        improved = False
        iterations += 1
        order = list(range(n))
        rng.shuffle(order)
        for u in order:
            token += 1
            current = int(community[u])
            deg_u = degree[u]
            seen: List[int] = []
            for pos in range(starts[u], starts[u + 1]):
                v = neighbors[pos]
                if v == u:
                    continue
                c = int(community[v])
                if stamp[c] != token:
                    stamp[c] = token
                    comm_weight[c] = 0.0
                    seen.append(c)
                comm_weight[c] += weights[pos]
            community_degree[current] -= deg_u
            weight_to_current = comm_weight[current] if stamp[current] == token else 0.0
            best_community = current
            best_gain = 0.0
            for candidate in seen:
                gain = comm_weight[candidate] - resolution * community_degree[
                    candidate
                ] * deg_u / two_m
                baseline = weight_to_current - resolution * (
                    community_degree[current] * deg_u / two_m
                )
                if gain - baseline > best_gain + 1e-12:
                    best_gain = gain - baseline
                    best_community = candidate
            community[u] = best_community
            community_degree[best_community] += deg_u
            if best_community != current:
                improved = True
    relabel = {c: i for i, c in enumerate(sorted(set(community.tolist())))}
    return {node: relabel[int(community[u])] for u, node in enumerate(nodes)}


# ----------------------------------------------------------------------
# Random weighted graphs
# ----------------------------------------------------------------------
WEIGHTS = (1.0, 1.0, 2.0, 0.5, 3.0, 0.25, 1.5)


def random_graph(
    rng: np.random.Generator,
    n: int,
    density: float = 0.08,
    components: int = 2,
    isolated: int = 2,
    weighted_nodes: bool = True,
    weighted_edges: bool = True,
) -> nx.Graph:
    """Random weighted graph built node by node, then edge by edge.

    Labels are distinct ints with holes, inserted in random order; nodes
    are spread over ``components`` components plus ``isolated`` isolated
    nodes; node and edge weights come from a non-unit palette (or are left
    at the default).
    """
    labels = [int(label) for label in rng.permutation(3 * n)[:n]]
    graph = nx.Graph()
    for label in labels:
        if weighted_nodes:
            graph.add_node(label, weight=float(rng.choice(WEIGHTS)))
        else:
            graph.add_node(label)
    connected = labels[isolated:]
    groups = [connected[i::components] for i in range(components)]
    pairs: List[Tuple[int, int]] = []
    for group in groups:
        for i, a in enumerate(group):
            if i:
                pairs.append((group[int(rng.integers(i))], a))  # keeps it connected
            for b in group[i + 1:]:
                if rng.random() < density:
                    pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    for index in rng.permutation(len(pairs)):
        a, b = pairs[int(index)]
        if weighted_edges:
            graph.add_edge(a, b, weight=float(rng.choice(WEIGHTS)))
        else:
            graph.add_edge(a, b)
    return graph


@st.composite
def weighted_graphs(draw, min_nodes: int = 1, max_nodes: int = 130) -> nx.Graph:
    n = draw(st.integers(min_nodes, max_nodes))
    return random_graph(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        n,
        density=draw(st.sampled_from([0.03, 0.08, 0.2, 0.5])),
        components=draw(st.integers(1, 3)),
        isolated=draw(st.integers(0, max(0, n // 8))),
        weighted_nodes=draw(st.booleans()),
        weighted_edges=draw(st.booleans()),
    )


def items(mapping: Dict) -> List:
    return list(mapping.items())


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    graph=weighted_graphs(min_nodes=2),
    # Up to 12 parts: part ids of 8 or more leave small-int set order, which
    # is what the refinement's candidate-set tie-break depends on.
    num_parts=st.integers(2, 12),
    imbalance=st.sampled_from([0.05, 0.15, 0.3, 0.5]),
    seed=st.integers(0, 2**31 - 1),
)
def test_partition_graph_matches_networkx(graph, num_parts, imbalance, seed):
    num_parts = min(num_parts, graph.number_of_nodes())
    expected = ref_partition_graph(graph, num_parts, imbalance=imbalance, seed=seed)
    assert items(partition_graph(graph, num_parts, imbalance=imbalance, seed=seed)) == items(
        expected
    )


@pytest.mark.parametrize("n", [59, 60, 61, 90, 130])
@pytest.mark.parametrize("num_parts", [2, 5, 8])
def test_partition_graph_matches_networkx_around_threshold(n, num_parts):
    # Sizes straddling the coarsening threshold max(60, 4k), several seeds.
    graph = random_graph(np.random.default_rng(100 * n + num_parts), n)
    for seed in (0, 1, 7):
        expected = ref_partition_graph(graph, num_parts, imbalance=0.15, seed=seed)
        assert items(partition_graph(graph, num_parts, imbalance=0.15, seed=seed)) == items(
            expected
        )


@settings(max_examples=40, deadline=None)
@given(graph=weighted_graphs(min_nodes=2), seed=st.integers(0, 2**31 - 1))
def test_coarsen_matches_networkx(graph, seed):
    levels = coarsen(graph, target_size=8, seed=seed)
    expected = ref_coarsen(graph, target_size=8, seed=seed)
    assert len(levels) == len(expected)
    for level, (coarse, projection) in zip(levels, expected):
        assert level.projection == projection
        csr = level.graph
        assert csr.nodes(data=True) == [
            (node, {"weight": data["weight"]}) for node, data in coarse.nodes(data=True)
        ]
        rows = [
            [(csr.labels[v], w) for v, w in zip(row, weights)]
            for row, weights in zip(csr.neighbors, csr.weights)
        ]
        assert rows == [
            [(v, data["weight"]) for v, data in coarse[u].items()] for u in coarse
        ]


@settings(max_examples=40, deadline=None)
@given(
    graph=weighted_graphs(min_nodes=2, max_nodes=60),
    num_parts=st.integers(2, 8),
    slack=st.sampled_from([0.0, 0.2, 0.6]),
    seed=st.integers(0, 2**31 - 1),
)
def test_refine_and_rebalance_match_networkx(graph, num_parts, slack, seed):
    rng = np.random.default_rng(seed)
    nodes = list(graph.nodes())
    order = [nodes[int(i)] for i in rng.permutation(len(nodes))]
    assignment = {node: int(rng.integers(num_parts)) for node in order}
    total = sum(ref_node_weight(graph, node) for node in nodes)
    cap = max((1.0 + slack) * total / num_parts, max(ref_node_weight(graph, v) for v in nodes))
    assert items(refine(graph, assignment, num_parts, cap, seed=seed)) == items(
        ref_refine(graph, assignment, num_parts, cap, seed=seed)
    )
    assert items(rebalance(graph, assignment, num_parts, cap)) == items(
        ref_rebalance(graph, assignment, num_parts, cap)
    )


@settings(max_examples=80, deadline=None)
@given(
    graph=weighted_graphs(min_nodes=1, max_nodes=24),
    data=st.data(),
)
def test_graph_center_matches_networkx(graph, data):
    nodes = list(graph.nodes())
    candidates = data.draw(
        st.lists(st.sampled_from(nodes + [-1]), min_size=1, max_size=len(nodes) + 1)
    )
    if not any(node in graph for node in candidates):
        with pytest.raises(ValueError):
            graph_center(graph, candidates)
        return
    assert graph_center(graph, candidates) == ref_graph_center(graph, candidates)
    assert graph_center(graph) == ref_graph_center(graph)
    adjacency = {node: dict(graph[node]) for node in graph}
    assert graph_center(adjacency, candidates) == ref_graph_center(graph, candidates)


def test_graph_center_breaks_component_ties_like_networkx():
    # Two equal-size components among candidates spread over a 20-node
    # topology: networkx scans the candidate *set* (fewer than half the
    # nodes), so the component found first depends on set order, not on
    # node order.
    graph = nx.path_graph(20)
    for candidates in ([17, 18, 3, 4], [3, 4, 17, 18], [9, 10, 19, 0, 1, 18]):
        assert graph_center(graph, candidates) == ref_graph_center(graph, candidates)
    # At exactly half the nodes networkx scans in graph order, here the
    # reverse of set order: the tied component {15..19} wins over {0..4}.
    reversed_path = nx.Graph()
    reversed_path.add_nodes_from(range(19, -1, -1))
    reversed_path.add_edges_from(zip(range(19), range(1, 20)))
    halves = [0, 1, 2, 3, 4, 15, 16, 17, 18, 19]
    assert ref_graph_center(reversed_path, halves) == 17
    assert graph_center(reversed_path, halves) == 17
    assert graph_center(reversed_path, halves[:9]) == ref_graph_center(
        reversed_path, halves[:9]
    )


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(min_nodes=1, max_nodes=40), seed=st.integers(0, 2**31 - 1))
def test_louvain_matches_networkx(graph, seed):
    if graph.number_of_edges():
        # A self-loop exercises the aggregated levels' intra-community weight.
        node = next(iter(graph))
        graph.add_edge(node, node, weight=0.5)
    result = louvain_communities(graph, seed=seed)
    expected = ref_louvain_communities(graph, seed=seed)
    assert [list(c) for c in result] == [list(c) for c in expected]
