"""Round-based execution of placed circuits over the quantum network.

The executor models what the paper's customised discrete-event simulator
measures: job completion time under a network-scheduling policy, probabilistic
EPR generation, and limited communication qubits.

Model
-----
Time advances in *EPR rounds* of one EPR-preparation latency (Table I).  Every
round the scheduler divides each QPU's communication qubits among the remote
operations in the combined front layer of all active jobs.  An operation that
receives ``x`` pairs succeeds that round with probability ``1 - (1 - p)^x``
(``p`` is the end-to-end success probability over the shortest path); on
success it finishes after the local gate + measurement tail and unlocks its
successors for the next round.  A job completes when all its remote operations
are done and its local critical path has elapsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Set

import numpy as np

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..network import EPRModel
from ..scheduling import NetworkScheduler, RemoteDAG
from .front_layer import FrontLayer, run_epr_round
from .latency import DEFAULT_LATENCY, LatencyModel


class ExecutionError(RuntimeError):
    """Raised when the executor cannot make progress."""


@dataclass
class ScheduledJob:
    """A placed circuit ready for network execution."""

    job_id: str
    circuit: QuantumCircuit
    mapping: Mapping[int, int]
    start_time: float = 0.0


@dataclass
class JobExecutionResult:
    """Per-job outcome of a network execution."""

    job_id: str
    start_time: float
    completion_time: float
    num_remote_operations: int
    epr_rounds: int
    local_time: float

    @property
    def makespan(self) -> float:
        """Time from the job's (remote) start to its completion."""
        return self.completion_time - self.start_time


@dataclass
class _JobState:
    job: ScheduledJob
    remote_dag: RemoteDAG
    local_time: float
    front: FrontLayer = field(init=False, repr=False)
    rounds: int = 0
    done: bool = False

    def __post_init__(self) -> None:
        self.front = FrontLayer(self.remote_dag, start_time=self.job.start_time)

    @property
    def total_operations(self) -> int:
        return self.remote_dag.num_operations

    @property
    def ready(self) -> Set[int]:
        return self.front.ready

    @property
    def completed(self) -> int:
        return self.front.completed

    @property
    def last_finish(self) -> float:
        return self.front.last_finish

    def finish_operation(self, node_id: int, finish_time: float) -> None:
        self.front.finish(node_id, finish_time)


def local_execution_time(
    circuit: QuantumCircuit, latency: LatencyModel = DEFAULT_LATENCY
) -> float:
    """Critical-path latency of the circuit if every gate were local.

    Memoized on the circuit per latency model.
    """

    def critical_path() -> float:
        ready = [0.0] * circuit.num_qubits
        for qubits, _, duration in latency.gate_table(circuit):
            finish = max(ready[q] for q in qubits) + duration
            for q in qubits:
                ready[q] = finish
        return max(ready, default=0.0)

    return circuit.memo(("local_execution_time", latency), critical_path)


class NetworkExecutor:
    """Simulates remote-gate execution of one or many placed jobs."""

    def __init__(
        self,
        cloud: QuantumCloud,
        scheduler: NetworkScheduler,
        latency: LatencyModel = DEFAULT_LATENCY,
        epr_success_probability: Optional[float] = None,
        max_rounds: int = 5_000_000,
    ) -> None:
        self.cloud = cloud
        self.scheduler = scheduler
        self.latency = latency
        probability = (
            cloud.epr_success_probability
            if epr_success_probability is None
            else epr_success_probability
        )
        self.epr_model = EPRModel(cloud.topology, probability)
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        jobs: Sequence[ScheduledJob],
        seed: Optional[int] = None,
    ) -> Dict[str, JobExecutionResult]:
        """Run all ``jobs`` to completion and return per-job results.

        Raises :class:`ExecutionError` up front when a remote operation needs
        a QPU without communication qubits (or outside the fleet): it could
        never be granted a pair.
        """
        rng = np.random.default_rng(seed)
        states = {
            job.job_id: _JobState(
                job=job,
                remote_dag=RemoteDAG(job.circuit, job.mapping),
                local_time=local_execution_time(job.circuit, self.latency),
            )
            for job in jobs
        }
        # Capacities are fixed for the whole call, so an operation on a QPU
        # without communication qubits could never be granted a pair.
        capacity = {
            qpu_id: qpu.communication_capacity
            for qpu_id, qpu in self.cloud.qpus.items()
        }
        for state in states.values():
            for operation in state.remote_dag:
                for qpu_id in operation.qpus:
                    if capacity.get(qpu_id, 0) < 1:
                        raise ExecutionError(
                            f"job {state.job.job_id}: remote operation "
                            f"{operation.node_id} needs QPU {qpu_id}, which has "
                            "no communication qubits, so it can never run"
                        )
        results: Dict[str, JobExecutionResult] = {}

        # Jobs without remote operations finish after their local critical path.
        for state in states.values():
            if state.total_operations == 0:
                state.done = True
                results[state.job.job_id] = self._result(state, rounds=0)

        time = min((s.job.start_time for s in states.values()), default=0.0)
        completion_tail = self.latency.two_qubit_gate + self.latency.measurement
        total_rounds = 0

        while any(not state.done for state in states.values()):
            active = [
                state
                for state in states.values()
                if not state.done and state.job.start_time <= time and state.ready
            ]
            if not active:
                # Jump to the next job start time if nothing is runnable yet.
                upcoming = [
                    state.job.start_time
                    for state in states.values()
                    if not state.done and state.job.start_time > time
                ]
                if not upcoming:
                    raise ExecutionError(
                        "no runnable remote operations but unfinished jobs remain"
                    )
                time = min(upcoming)
                continue

            successes = run_epr_round(
                [(state.job.job_id, state.front) for state in active],
                capacity,
                self.scheduler,
                self.epr_model,
                rng,
            )
            round_end = time + self.latency.epr_preparation
            finish = round_end + completion_tail
            for job_id, node_id in successes:
                states[job_id].finish_operation(node_id, finish)

            for state in active:
                state.rounds += 1
                if not state.done and state.completed == state.total_operations:
                    state.done = True
                    results[state.job.job_id] = self._result(state, rounds=state.rounds)

            time = round_end
            total_rounds += 1
            if total_rounds > self.max_rounds:
                raise ExecutionError(
                    f"execution exceeded {self.max_rounds} EPR rounds; "
                    "check communication capacities"
                )

        return results

    def execute_single(
        self,
        circuit: QuantumCircuit,
        mapping: Mapping[int, int],
        seed: Optional[int] = None,
        job_id: str = "job-0",
    ) -> JobExecutionResult:
        """Convenience wrapper for single-job experiments (Sec. VI-C)."""
        job = ScheduledJob(job_id=job_id, circuit=circuit, mapping=mapping)
        return self.execute([job], seed=seed)[job_id]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _result(self, state: _JobState, rounds: int) -> JobExecutionResult:
        start = state.job.start_time
        remote_finish = state.last_finish
        completion = max(start + state.local_time, remote_finish)
        return JobExecutionResult(
            job_id=state.job.job_id,
            start_time=start,
            completion_time=completion,
            num_remote_operations=state.total_operations,
            epr_rounds=rounds,
            local_time=state.local_time,
        )


def mean_completion_time(results: Mapping[str, JobExecutionResult]) -> float:
    """Mean completion time across jobs (the figures' y-axis)."""
    if not results:
        return 0.0
    return float(np.mean([r.completion_time - r.start_time for r in results.values()]))
