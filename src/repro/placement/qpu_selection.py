"""QPU-set selection strategies used by the CloudQC placement pipeline.

CloudQC proper selects QPUs with modularity-based community detection
(:mod:`repro.community.detection`); CloudQC-BFS replaces that step with a
breadth-first expansion over the cloud topology from the most resource-rich
QPU.  Both return a list of QPU ids whose combined free computing qubits cover
the circuit.

Both selectors are deterministic and accept an optional
:class:`~repro.placement.PlacementContext` that memoizes results per cloud
``resource_version`` -- repeated selections on an unchanged cloud (the common
case across a placement attempt's candidate grid, and across retries of a
queued job) are served from cache.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..cloud import QuantumCloud
from ..community import CommunityError
from .context import PlacementContext


def community_qpu_set(
    cloud: QuantumCloud,
    required_qubits: int,
    min_qpus: int = 1,
    context: Optional[PlacementContext] = None,
) -> List[int]:
    """Louvain-community QPU selection (the CloudQC default).

    Detection runs with :data:`~repro.placement.context.PLACEMENT_SEED`, so
    the selection is a pure function of the cloud's availability map.
    """
    context = PlacementContext() if context is None else context
    return context.community_qpu_set(cloud, required_qubits, min_qpus)


def bfs_qpu_set(
    cloud: QuantumCloud,
    required_qubits: int,
    min_qpus: int = 1,
    start: Optional[int] = None,
    context: Optional[PlacementContext] = None,
) -> List[int]:
    """Breadth-first QPU selection (the CloudQC-BFS baseline).

    Starting from ``start`` (default: the QPU with the most free computing
    qubits), expand over quantum links until the accumulated free capacity
    covers ``required_qubits`` and at least ``min_qpus`` QPUs are selected.
    Like ``random_qpu_walk``, the walk only steps onto fleet members.  Raises :class:`CommunityError` when the cloud cannot satisfy either the
    capacity requirement or the ``min_qpus`` floor.
    """
    if context is not None and start is None:
        return context.bfs_qpu_set(cloud, required_qubits, min_qpus)
    if required_qubits <= 0:
        raise ValueError("required_qubits must be positive")
    available = cloud.available_computing()
    # detlint: ignore[DET003] integer availability; sum is order-insensitive
    if sum(available.values()) < required_qubits:
        raise CommunityError(  # detlint: ignore[DET003] integer availability; sum is order-insensitive
            f"cloud has only {sum(available.values())} free qubits, "
            f"need {required_qubits}"
        )
    if start is None:
        start = max(available, key=lambda q: (available[q], -q))

    selected: List[int] = []
    capacity = 0
    visited = {start}
    queue = deque([start])
    while queue and (capacity < required_qubits or len(selected) < min_qpus):
        qpu = queue.popleft()
        if available[qpu] > 0:
            selected.append(qpu)
            capacity += available[qpu]
        for neighbor in cloud.topology.neighbors(qpu):
            if neighbor not in visited and neighbor in available:
                visited.add(neighbor)
                queue.append(neighbor)
    if capacity < required_qubits or len(selected) < min_qpus:
        # The BFS tree ran out (disconnected availability, or fewer reachable
        # QPUs with free capacity than ``min_qpus``); fall back to any QPU.
        # The fallback must keep going until *both* the capacity target and
        # the min_qpus floor are met -- stopping at capacity alone used to
        # return fewer than ``min_qpus`` QPUs.
        for qpu in sorted(available, key=available.get, reverse=True):
            if qpu not in selected and available[qpu] > 0:
                selected.append(qpu)
                capacity += available[qpu]
            if capacity >= required_qubits and len(selected) >= min_qpus:
                break
    if capacity < required_qubits:
        raise CommunityError("BFS selection could not cover the required qubits")
    if len(selected) < min_qpus:
        raise CommunityError(
            f"only {len(selected)} QPUs have free capacity, need {min_qpus}"
        )
    return sorted(selected)
