"""Partition-to-QPU mapping heuristic (Algorithm 2, "Find Placement").

Given a circuit partition, the quotient interaction graph between parts, and a
selected QPU community, anchor the most central part on the community's graph
center and expand outwards: every remaining part is mapped to the free QPU
closest (in hop distance, weighted by interaction strength) to the QPUs of its
already-mapped neighbouring parts.  Parts with heavy mutual communication
therefore land on nearby QPUs.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

import networkx as nx

from ..cloud import QuantumCloud
from ..community import graph_center

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext

#: ``{part: {other part: crossing two-qubit gates}}``.
QuotientAdjacency = Mapping[Hashable, Mapping[Hashable, float]]


class MappingError(RuntimeError):
    """Raised when the parts cannot be fitted on the candidate QPUs."""


def _weighted_adjacency(
    quotient: Union[nx.Graph, QuotientAdjacency]
) -> QuotientAdjacency:
    """The quotient as ``{part: {other: weight}}``; mappings pass through."""
    if not isinstance(quotient, nx.Graph):
        return quotient
    return {
        part: {other: float(data.get("weight", 1.0)) for other, data in row.items()}
        for part, row in quotient.adjacency()
    }


def _bfs_part_order(
    quotient: QuotientAdjacency, center_part: Hashable
) -> List[Hashable]:
    """BFS order over the quotient graph from the centre, heaviest edges first."""
    order: List[Hashable] = []
    visited = {center_part}
    queue = deque([center_part])
    while queue:
        part = queue.popleft()
        order.append(part)
        row = quotient.get(part, {})  # no row: the part crosses no other
        for neighbor, _ in sorted(row.items(), key=lambda item: -item[1]):
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    # Parts disconnected from the centre come last, in label order.
    # detlint: ignore[DET003] part labels are distinct ints; sorted() output is canonical regardless of set order
    for part in sorted(set(quotient) - visited):
        order.append(part)
    return order


def mapping_order(
    part_sizes: Mapping[Hashable, int], quotient: QuotientAdjacency
) -> List[Hashable]:
    """The order Algorithm 2 maps parts in.

    The quotient's centre part first (the largest part when no part crosses
    another), then a heaviest-edge-first BFS from it, then every part the BFS
    cannot reach.  A pure function of the partition, so
    :meth:`PlacementContext.quotient` stores it with the cached quotient.
    """
    parts = list(part_sizes)
    if quotient and any(quotient.values()):
        center_part = graph_center(quotient)
    else:
        center_part = max(parts, key=lambda p: part_sizes[p])
    order = _bfs_part_order(quotient, center_part) if quotient else list(parts)
    # Parts not present in the quotient graph (fully local, no cross edges).
    for part in parts:
        if part not in order:
            order.append(part)
    return order


def map_partitions_to_qpus(
    part_sizes: Mapping[Hashable, int],
    quotient: Union[nx.Graph, QuotientAdjacency],
    cloud: QuantumCloud,
    candidate_qpus: Sequence[int],
    context: Optional["PlacementContext"] = None,
    order: Optional[Sequence[Hashable]] = None,
) -> Dict[Hashable, int]:
    """Map every part to a QPU drawn (preferentially) from ``candidate_qpus``.

    Parameters
    ----------
    part_sizes:
        Number of computing qubits each part needs.
    quotient:
        Inter-part interaction graph (edge weight = crossing two-qubit gates),
        as a networkx graph or as the ``{part: {other: weight}}`` adjacency
        :meth:`PlacementContext.quotient` returns.
    cloud:
        The quantum cloud; availability is read live (through the map
        :meth:`~repro.cloud.QuantumCloud.available_computing` caches per
        resource version) so multi-tenant placements account for qubits
        already held by other jobs.
    candidate_qpus:
        QPUs selected by community detection (or BFS); other QPUs are used only
        if the candidates run out of capacity.  Two parts share a QPU only
        when no free QPU fits: Algorithm 2 prefers distinct QPUs (sharing
        would merge the parts).
    context:
        Optional :class:`~repro.placement.PlacementContext`; memoizes the
        candidate set's topology center (a pure function of the static
        topology, and a hot call on the attempt pipeline).  The context
        also stores each cached quotient's part order, which reaches this
        function as ``order`` (:meth:`PlacementContext.part_order`).
    order:
        :func:`mapping_order` of ``part_sizes`` and ``quotient``; computed
        here when ``None``.
    """
    if not part_sizes:
        return {}
    quotient = _weighted_adjacency(quotient)
    qpu_ids = cloud.qpu_ids
    candidates = [q for q in candidate_qpus if q in cloud.qpus]
    if not candidates:
        candidates = qpu_ids

    # A copy of the read-only map the cloud caches per resource version;
    # the loop below draws it down as it maps parts.
    available = dict(cloud.available_computing())

    if context is not None:
        community_center = context.topology_center(cloud, candidates)
    else:
        community_center = graph_center(cloud.topology.graph, candidates)
    if order is None:
        order = mapping_order(part_sizes, quotient)

    distances = cloud.topology.distance_table()
    mapping: Dict[Hashable, int] = {}
    used: Set[int] = set()

    for part in order:
        if part not in part_sizes:
            continue
        size = part_sizes[part]
        target = _pick_qpu(
            part,
            size,
            mapping,
            quotient,
            distances,
            qpu_ids,
            candidates,
            available,
            used,
            community_center,
        )
        if target is None:
            raise MappingError(
                f"no QPU can host part {part!r} needing {size} qubits"
            )
        mapping[part] = target
        available[target] -= size
        used.add(target)
    return mapping


def _pick_qpu(
    part: Hashable,
    size: int,
    mapping: Mapping[Hashable, int],
    quotient: QuotientAdjacency,
    distances: Mapping[int, Mapping[int, int]],
    qpu_ids: Sequence[int],
    candidates: Sequence[int],
    available: Mapping[int, int],
    used: Set[int],
    community_center: int,
) -> Optional[int]:
    # Already-mapped neighbouring parts, in quotient adjacency order: the
    # order the attraction sum below adds their terms in.
    anchors = [
        (float(weight), mapping[neighbor])
        for neighbor, weight in quotient.get(part, {}).items()
        if neighbor in mapping
    ]

    def rank(qpu_id: int) -> tuple:
        row = distances[qpu_id]
        # Weighted distance to the QPUs of already-mapped neighbouring parts.
        attraction = 0.0
        for weight, qpu in anchors:
            attraction += weight * row[qpu]
        return (attraction, row[community_center], -available[qpu_id], qpu_id)

    # Free candidates first, then shared candidates, then the rest of the
    # cloud (free, then shared).
    pool = [q for q in candidates if q not in used and available[q] >= size]
    if not pool:
        pool = [q for q in candidates if q in used and available[q] >= size]
    if not pool:
        pool = [q for q in qpu_ids if q not in used and available[q] >= size]
    if not pool:
        pool = [q for q in qpu_ids if available[q] >= size]
    return min(pool, key=rank) if pool else None


def expand_parts_to_qubits(
    part_assignment: Mapping[int, Hashable],
    part_to_qpu: Mapping[Hashable, int],
) -> Dict[int, int]:
    """Compose qubit -> part and part -> QPU into the final qubit -> QPU mapping."""
    missing = {part for part in part_assignment.values() if part not in part_to_qpu}
    if missing:
        raise MappingError(f"parts {sorted(map(str, missing))} were never mapped to a QPU")
    return {qubit: part_to_qpu[part] for qubit, part in part_assignment.items()}
