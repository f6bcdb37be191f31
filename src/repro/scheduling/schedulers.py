"""Network scheduling policies: CloudQC (priority-based), Greedy, Average, Random.

Each policy answers the same question every EPR round: given the front-layer
remote operations of all active jobs (the *competing set*) and the free
communication qubits on every QPU, how many EPR-generation attempts does each
operation get?  (Sec. V-C / Sec. VI-C.)
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .allocation import AllocationRequest, charge, max_allocatable


def _by_priority(request: AllocationRequest) -> Tuple[int, Tuple[str, int]]:
    """Sort key: decreasing priority, ties by op id."""
    return (-request.priority, request.op_id)


class NetworkScheduler(abc.ABC):
    """Interface for communication-qubit allocation policies."""

    name = "abstract"

    @abc.abstractmethod
    def allocate(
        self,
        requests: Sequence[AllocationRequest],
        capacity: Mapping[int, int],
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[Tuple[str, int], int]:
        """Return op_id -> number of EPR attempt pairs granted this round."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class CloudQCScheduler(NetworkScheduler):
    """The paper's scheduler: priority-weighted allocation with starvation freedom.

    Two passes per round:

    1. *Base pass* -- in decreasing priority order every operation receives one
       pair if capacity allows, so no competing operation is starved while
       others receive redundant resources.
    2. *Redundancy pass* -- leftover capacity is handed out one pair at a time,
       again in decreasing priority order, so critical-path operations get
       extra attempts and are less likely to backlog their successors.
    """

    name = "cloudqc"

    def __init__(self, max_redundancy: Optional[int] = None) -> None:
        if max_redundancy is not None and max_redundancy < 1:
            raise ValueError("max_redundancy must be at least 1")
        self.max_redundancy = max_redundancy

    def allocate(
        self,
        requests: Sequence[AllocationRequest],
        capacity: Mapping[int, int],
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[Tuple[str, int], int]:
        # The Eq. 8 bookkeeping of max_allocatable/charge, inlined on local
        # dicts: this runs once per EPR round.
        remaining = dict(capacity)
        allocation: Dict[Tuple[str, int], int] = {}

        # Base pass: one pair each, highest priority first.
        grantees: List[AllocationRequest] = []
        for request in sorted(requests, key=_by_priority):
            a, b = request.qpu_a, request.qpu_b
            free_a, free_b = remaining.get(a, 0), remaining.get(b, 0)
            if free_a >= 1 and free_b >= 1:
                remaining[a], remaining[b] = free_a - 1, free_b - 1
                allocation[request.op_id] = 1
                grantees.append(request)

        # Redundancy pass: sweep the grantees by priority, one extra pair
        # each per sweep, until capacity runs out.  Capacity only shrinks and
        # grants only grow, so a grantee that is refused once, or has
        # reached max_redundancy, is dropped from later sweeps.
        cap = self.max_redundancy
        while grantees:
            kept: List[AllocationRequest] = []
            for request in grantees:
                granted = allocation[request.op_id]
                if cap is not None and granted >= cap:
                    continue
                a, b = request.qpu_a, request.qpu_b
                free_a, free_b = remaining[a], remaining[b]
                if free_a >= 1 and free_b >= 1:
                    remaining[a], remaining[b] = free_a - 1, free_b - 1
                    allocation[request.op_id] = granted + 1
                    kept.append(request)
            grantees = kept
        return allocation


class GreedyScheduler(NetworkScheduler):
    """Greedy baseline: maximum resources to the highest-priority operation.

    The highest-priority operation takes everything it can on both its QPUs,
    then the next one, and so on -- which starves lower-priority operations
    sharing a QPU and gives the worst completion times in the paper.
    """

    name = "greedy"

    def allocate(
        self,
        requests: Sequence[AllocationRequest],
        capacity: Mapping[int, int],
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[Tuple[str, int], int]:
        remaining = dict(capacity)
        allocation: Dict[Tuple[str, int], int] = {}
        for request in sorted(requests, key=_by_priority):
            grant = max_allocatable(request, remaining)
            if grant >= 1:
                allocation[request.op_id] = grant
                charge(request, grant, remaining)
        return allocation


class AverageScheduler(NetworkScheduler):
    """Average baseline: spread communication qubits evenly over the front layer.

    Round-robin, one pair at a time, ignoring priorities entirely.
    """

    name = "average"

    def allocate(
        self,
        requests: Sequence[AllocationRequest],
        capacity: Mapping[int, int],
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[Tuple[str, int], int]:
        remaining = dict(capacity)
        allocation: Dict[Tuple[str, int], int] = {}
        ordered = sorted(requests, key=lambda r: r.op_id)
        progress = True
        while progress:
            progress = False
            for request in ordered:
                if max_allocatable(request, remaining) >= 1:
                    allocation[request.op_id] = allocation.get(request.op_id, 0) + 1
                    charge(request, 1, remaining)
                    progress = True
        return allocation


class RandomScheduler(NetworkScheduler):
    """Random baseline: pairs are granted to uniformly random front-layer ops."""

    name = "random"

    def allocate(
        self,
        requests: Sequence[AllocationRequest],
        capacity: Mapping[int, int],
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[Tuple[str, int], int]:
        # Pinned fallback seed: the simulator always passes its own rng, and a
        # bare call must still be reproducible run-to-run.
        rng = rng or np.random.default_rng(0)
        remaining = dict(capacity)
        allocation: Dict[Tuple[str, int], int] = {}
        candidates: List[AllocationRequest] = list(requests)
        while candidates:
            index = int(rng.integers(len(candidates)))
            request = candidates[index]
            if max_allocatable(request, remaining) >= 1:
                allocation[request.op_id] = allocation.get(request.op_id, 0) + 1
                charge(request, 1, remaining)
            else:
                candidates.pop(index)
        return allocation


#: Registry used by benchmarks and the multi-tenant simulator.
NETWORK_SCHEDULERS: Dict[str, type] = {
    CloudQCScheduler.name: CloudQCScheduler,
    GreedyScheduler.name: GreedyScheduler,
    AverageScheduler.name: AverageScheduler,
    RandomScheduler.name: RandomScheduler,
}


def get_scheduler(name: str, **kwargs) -> NetworkScheduler:
    """Instantiate a network scheduler by registry name."""
    if name not in NETWORK_SCHEDULERS:
        raise KeyError(
            f"unknown network scheduler {name!r}; known: {sorted(NETWORK_SCHEDULERS)}"
        )
    return NETWORK_SCHEDULERS[name](**kwargs)
