"""Cloud controller: the component that owns job state and QPU status (Sec. III).

The controller's responsibilities in the paper are (1) finding a placement for
each submitted circuit, (2) deciding resource allocation for all placed
circuits, and (3) monitoring QPU status.  Placement and scheduling policies are
pluggable so that the cloud can run CloudQC or any baseline: the simulator
computes each placement with a
:class:`~repro.placement.base.PlacementAlgorithm` and admits it through
:meth:`Controller.place`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..circuits import QuantumCircuit
from .cloud import PlacementError, QuantumCloud
from .job import Job, JobStatus


class Controller:
    """Tracks jobs, admits placements, and exposes cloud status."""

    #: Controller state is serialized *externally*: the simulator's
    #: ``_capture_state`` stores the job table under ``"jobs"`` and the
    #: fleet under ``"cloud"``.  Listing those keys here keeps detlint's
    #: CKPT001 watching this class -- a new ``self.`` attribute must be
    #: added to the external snapshot (or excluded with a reason) before
    #: the lint passes again.
    _CHECKPOINT_KEYS = ("jobs", "cloud")

    def __init__(self, cloud: QuantumCloud) -> None:
        self.cloud = cloud
        self.jobs: Dict[str, Job] = {}

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        circuit: QuantumCircuit,
        arrival_time: float = 0.0,
        job_id: Optional[str] = None,
    ) -> Job:
        """Register a new PENDING job (``job_id``: one from reserve_job_ids)."""
        if job_id is None:
            job = Job(circuit=circuit, arrival_time=arrival_time)
        else:
            job = Job(circuit=circuit, job_id=job_id, arrival_time=arrival_time)
        self.jobs[job.job_id] = job
        return job

    def place(self, job: Job, placement: Mapping[int, int]) -> None:
        """Admit ``placement`` for ``job``, reserving computing qubits."""
        if job.job_id not in self.jobs:
            raise KeyError(f"unknown job {job.job_id}")
        if job.status not in (JobStatus.PENDING, JobStatus.FAILED):
            raise PlacementError(f"job {job.job_id} is already {job.status.value}")
        self.cloud.admit(job.job_id, placement)
        job.mark_placed(placement)

    def start(self, job: Job, time: float) -> None:
        if job.status is not JobStatus.PLACED:
            raise PlacementError(f"job {job.job_id} cannot start from {job.status.value}")
        job.mark_running(time)

    def complete(self, job: Job, time: float) -> None:
        """Mark a job finished and free its computing qubits."""
        self.cloud.release(job.job_id)
        job.mark_completed(time)

    def drop(self, job: Job) -> None:
        """Terminal drop (rejected / expired / abandoned): one transition for
        every path that removes a job from the system without completing it.

        Computing qubits are released iff the job actually holds a
        reservation (PLACED or RUNNING); a never-admitted job -- rejected at
        arrival or expired in the pending queue -- must not touch the cloud.
        """
        if job.status in (JobStatus.PLACED, JobStatus.RUNNING):
            self.cloud.release(job.job_id)
        job.mark_failed()

    def preempt(self, job: Job, time: float) -> None:
        """Evict a placed/running job back to PENDING, freeing its qubits.

        The job keeps its identity and arrival time and may be re-placed by a
        later placement pass; the work it banked is the simulator's
        ledger (:class:`~repro.multitenant.JobProgress`), not the
        controller's concern.
        """
        if job.status not in (JobStatus.PLACED, JobStatus.RUNNING):
            raise PlacementError(
                f"job {job.job_id} cannot be preempted from {job.status.value}"
            )
        self.cloud.release(job.job_id)
        job.mark_preempted(time)

    def migrate(self, job: Job, placement: Mapping[int, int], time: float) -> None:
        """Atomically move a placed/running job onto a new placement.

        The old reservation is released and the new one admitted as one
        transition: if the new placement does not fit, the old reservation is
        restored and :class:`PlacementError` propagates, so the job never
        ends up holding nothing (or both).
        """
        if job.status not in (JobStatus.PLACED, JobStatus.RUNNING):
            raise PlacementError(
                f"job {job.job_id} cannot be migrated from {job.status.value}"
            )
        old_placement = dict(job.placement or {})
        self.cloud.release(job.job_id)
        try:
            self.cloud.admit(job.job_id, placement)
        except PlacementError:
            if old_placement:
                # The old qubits were freed a moment ago, so this cannot fail.
                self.cloud.admit(job.job_id, old_placement)
            raise
        job.mark_migrated(placement, time)

    # ------------------------------------------------------------------
    # Fleet transitions (drains and failures)
    # ------------------------------------------------------------------
    def jobs_on(self, qpu_id: int) -> List[Job]:
        """Placed/running jobs holding computing qubits on ``qpu_id``.

        The fleet layer walks this list (deterministic job-id order) when a
        QPU drains or fails: each affected job is migrated, preempted or
        dropped *exactly once*, after which the QPU is idle and can leave
        the fleet (``QuantumCloud.remove_qpu`` enforces the idleness).
        """
        qpu = self.cloud.qpus.get(qpu_id)
        if qpu is None:
            return []
        return sorted(
            (
                self.jobs[job_id]
                for job_id in qpu.jobs
                if job_id in self.jobs
            ),
            key=lambda job: job.job_id,
        )
