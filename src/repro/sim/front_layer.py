"""Front-layer tracking and the EPR-round kernel for remote-operation DAGs.

The event-driven cluster simulator executes every placed job's
:class:`~repro.scheduling.RemoteDAG` in EPR rounds (a single placed circuit
runs as a one-job batch of it, see :class:`~repro.sim.NetworkExecutor`):
every round, the *front layer* -- the remote operations whose predecessors
have all finished -- competes for communication qubits, and a success
unlocks its successors.  This module holds that bookkeeping, with an indexed
ready set so finishing an operation is O(successors) instead of the
O(front * log front) of a re-sorted ready list, and :func:`run_epr_round`,
the per-round network step.  Where front-layer execution sits in the overall
event-driven flow is documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..network import EPRModel
from ..scheduling import AllocationRequest, NetworkScheduler, RemoteDAG


class FrontLayer:
    """Tracks the ready front of one job's remote DAG as operations finish."""

    __slots__ = (
        "dag",
        "pending_predecessors",
        "ready",
        "completed",
        "last_finish",
        "rounds",
        "_table_job",
        "_table",
    )

    def __init__(self, dag: RemoteDAG, start_time: float = 0.0) -> None:
        self.dag = dag
        self.pending_predecessors: Dict[int, int] = {
            node_id: len(operation.predecessors)
            for node_id, operation in dag.operations.items()
        }
        self.ready: Set[int] = {
            node for node, count in self.pending_predecessors.items() if count == 0
        }
        self.completed = 0
        self.last_finish = start_time
        #: EPR rounds this front took part in (counted by run_epr_round).
        self.rounds = 0
        # Per-operation requests, built on the first requests() call: a
        # placed job's op ids, endpoints and priorities never change.
        self._table_job: Optional[str] = None
        self._table: Dict[int, AllocationRequest] = {}

    @property
    def done(self) -> bool:
        return self.completed == self.dag.num_operations

    def snapshot(self) -> Dict[str, int]:
        """Progress counters of this front layer (for preemption bookkeeping).

        The returned ``completed`` count is what a resumed job feeds back into
        :meth:`fast_forward` so already-succeeded EPR rounds are not redone.
        """
        return {
            "completed": self.completed,
            "total": self.dag.num_operations,
            "ready": len(self.ready),
        }

    def fast_forward(self, num_ops: int, finish_time: float) -> int:
        """Instantly finish up to ``num_ops`` operations in deterministic order.

        Used when a preempted job resumes: the EPR successes it already
        banked are credited without consuming rounds (or RNG).  Operations
        are retired in ascending node-id order, respecting DAG dependencies,
        so the credit is well defined even when the job resumes under a
        different placement whose remote DAG differs from the original.
        Returns the number of operations actually credited.

        A heap over the ready set keeps this O(ops log front) -- repeated
        ``min(self.ready)`` would reintroduce the quadratic front-
        maintenance cost this module exists to avoid -- while crediting in
        exactly the ascending-node-id order the docstring promises.
        """
        credited = 0
        heap = list(self.ready)
        heapq.heapify(heap)
        while credited < num_ops and heap:
            node_id = heapq.heappop(heap)
            self.finish(node_id, finish_time)
            for successor in self.dag.operation(node_id).successors:
                # finish() just unlocked these: they were not ready before
                # (this node was an unfinished predecessor), so each enters
                # the heap exactly once.
                if self.pending_predecessors[successor] == 0:
                    heapq.heappush(heap, successor)
            credited += 1
        return credited

    def finish(self, node_id: int, finish_time: float) -> None:
        """Mark a ready operation finished, unlocking its successors."""
        self.completed += 1
        self.last_finish = max(self.last_finish, finish_time)
        self.ready.remove(node_id)
        for successor in self.dag.operation(node_id).successors:
            self.pending_predecessors[successor] -= 1
            if self.pending_predecessors[successor] == 0:
                self.ready.add(successor)

    def requests(self, job_id: str) -> List[AllocationRequest]:
        """Allocation requests for the current front layer, in node-id order.

        Each operation's request is built once, from the DAG's priorities at
        the first call, and looked up afterwards.
        """
        if self._table_job != job_id:
            self._table = {
                node_id: AllocationRequest(
                    op_id=(job_id, node_id),
                    qpu_a=operation.qpus[0],
                    qpu_b=operation.qpus[1],
                    priority=operation.priority,
                )
                for node_id, operation in self.dag.operations.items()
            }
            self._table_job = job_id
        table = self._table
        return [table[node_id] for node_id in sorted(self.ready)]


def run_epr_round(
    fronts: Iterable[Tuple[str, FrontLayer]],
    capacity: Mapping[int, int],
    scheduler: NetworkScheduler,
    epr_model: EPRModel,
    rng: np.random.Generator,
) -> List[Tuple[str, int]]:
    """One EPR round over the runnable front layers; returns the successes.

    The order contract seeded runs rely on for bit-identical replays:
    ``fronts`` holds the runnable ``(job_id, front)`` pairs in runnable order,
    each front contributes its requests in ascending node id, the scheduler
    allocates once for the whole round, and every granted request is then
    sampled in request order (one ``rng.random()`` each).  The op ids that
    succeeded come back in that order; the caller finishes them.  Every
    front in ``fronts`` counts the round in its ``rounds``.
    """
    requests: List[AllocationRequest] = []
    for job_id, front in fronts:
        requests += front.requests(job_id)
        front.rounds += 1
    allocation = scheduler.allocate(requests, capacity, rng=rng)
    sample = epr_model.sample_round
    successes: List[Tuple[str, int]] = []
    for request in requests:
        granted = allocation.get(request.op_id, 0)
        if granted > 0 and sample(request.qpu_a, request.qpu_b, granted, rng):
            successes.append(request.op_id)
    return successes
