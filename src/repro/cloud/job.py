"""Job model: one tenant's quantum circuit moving through the cloud.

A job wraps a circuit with the bookkeeping the controller needs: arrival time,
placement, per-QPU qubit usage, and completion statistics.  The batch manager's
ordering metric I_i (Eq. 11) is also computed here, since it only depends on
the circuit's structure.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..circuits import QuantumCircuit


class JobStatus(enum.Enum):
    """Lifecycle of a job inside the cloud."""

    PENDING = "pending"
    PLACED = "placed"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


_job_counter = itertools.count()

# Shadow of the counter's next value, maintained by ``_next_job_id``.  The
# counter itself must stay a plain iterator (tests rebind it with
# ``job_module._job_counter = itertools.count()`` to reset ids), and
# ``itertools.count`` cannot be inspected without consuming it -- so the
# checkpoint subsystem reads this shadow instead.
_next_issued = 0


def _next_job_id() -> str:
    global _next_issued
    value = next(_job_counter)
    _next_issued = value + 1
    return f"job-{value}"


def job_counter_state() -> int:
    """Next integer ``_next_job_id`` would issue (for checkpointing)."""
    return _next_issued


def set_job_counter(value: int) -> None:
    """Rewind/advance the job-id counter (restoring from a checkpoint)."""
    global _job_counter, _next_issued
    _job_counter = itertools.count(value)
    _next_issued = value


def reserve_job_ids(count: int) -> int:
    """Reserve ``count`` consecutive job ids; returns the first one's number."""
    # The live counter, not the shadow: a rebound counter leaves it stale.
    first = next(_job_counter)
    set_job_counter(first + count)
    return first


@dataclass
class Job:
    """A tenant request: one circuit plus scheduling metadata."""

    #: Jobs are serialized externally by the simulator's ``_capture_job``;
    #: every field below must appear there (detlint CKPT001 enforces this).
    _CHECKPOINT_KEYS = (
        "job_id",
        "circuit",
        "arrival_time",
        "status",
        "placement",
        "start_time",
        "completion_time",
        "num_preemptions",
        "num_migrations",
        "last_preempted_time",
        "last_migrated_time",
    )

    circuit: QuantumCircuit
    job_id: str = field(default_factory=_next_job_id)
    arrival_time: float = 0.0
    status: JobStatus = JobStatus.PENDING
    placement: Optional[Dict[int, int]] = None
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    num_preemptions: int = 0
    num_migrations: int = 0
    last_preempted_time: Optional[float] = None
    last_migrated_time: Optional[float] = None

    @property
    def name(self) -> str:
        return self.circuit.name

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def num_two_qubit_gates(self) -> int:
        return self.circuit.num_two_qubit_gates

    @property
    def depth(self) -> int:
        return self.circuit.depth()

    def priority_metric(
        self,
        lambda_density: float = 1.0,
        lambda_qubits: float = 1.0,
        lambda_depth: float = 1.0,
    ) -> float:
        """Batch-manager ordering metric I_i of Eq. 11.

        ``I_i = λ1 * (#CNOTs / n_i) + λ2 * n_i + λ3 * d_i`` where ``n_i`` is the
        qubit count and ``d_i`` the circuit depth.
        """
        density = self.num_two_qubit_gates / max(self.num_qubits, 1)
        return (
            lambda_density * density
            + lambda_qubits * self.num_qubits
            + lambda_depth * self.depth
        )

    def qubits_per_qpu(self) -> Dict[int, int]:
        """How many computing qubits the current placement uses on each QPU."""
        if self.placement is None:
            return {}
        usage: Dict[int, int] = {}
        for qpu in self.placement.values():
            usage[qpu] = usage.get(qpu, 0) + 1
        return usage

    def mark_placed(self, placement: Dict[int, int]) -> None:
        self.placement = dict(placement)
        self.status = JobStatus.PLACED

    def mark_running(self, start_time: float) -> None:
        self.start_time = start_time
        self.status = JobStatus.RUNNING

    def mark_completed(self, completion_time: float) -> None:
        self.completion_time = completion_time
        self.status = JobStatus.COMPLETED

    def mark_failed(self) -> None:
        self.status = JobStatus.FAILED

    def mark_preempted(self, time: float) -> None:
        """Return to PENDING with no placement (the controller freed it)."""
        self.placement = None
        self.start_time = None
        self.status = JobStatus.PENDING
        self.num_preemptions += 1
        self.last_preempted_time = time

    def mark_migrated(self, placement: Dict[int, int], time: float) -> None:
        """Adopt a new placement without leaving the running state."""
        self.placement = dict(placement)
        self.num_migrations += 1
        self.last_migrated_time = time

    @property
    def job_completion_time(self) -> Optional[float]:
        """JCT measured from arrival to completion (the paper's headline metric)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(id={self.job_id!r}, circuit={self.circuit.name!r}, "
            f"qubits={self.num_qubits}, status={self.status.value})"
        )
