"""QPU model: computing qubits plus communication qubits (Sec. III, Fig. 2).

A QPU owns a fixed pool of *computing* qubits, allocated to jobs for the
lifetime of the job, and a fixed pool of *communication* qubits.  The QPU
keeps no ledger of the latter: every EPR round,
:func:`~repro.sim.front_layer.run_epr_round` divides each QPU's
``communication_capacity`` afresh among the front-layer remote operations,
and nothing is held past the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class ResourceError(RuntimeError):
    """Raised when an allocation would exceed a QPU's capacity."""


@dataclass
class QPU:
    """A quantum processing unit in the cloud.

    Attributes
    ----------
    qpu_id:
        Integer identifier; doubles as the node id in the cloud topology.
    computing_capacity:
        Number of computing qubits available for circuit partitions.
    communication_capacity:
        Number of communication qubits available for EPR generation.
    epr_success_probability:
        Per-QPU EPR attempt success probability, or ``None`` to use the
        cloud-wide default.  Calibration windows temporarily override it;
        the effective probability of a link is the minimum of its two
        endpoints' values (a degraded QPU degrades every link it serves).
    """

    #: QPUs are serialized externally by the simulator's ``_capture_cloud``;
    #: every field below must appear there (detlint CKPT001 enforces this).
    _CHECKPOINT_KEYS = (
        "qpu_id",
        "computing_capacity",
        "communication_capacity",
        "epr_success_probability",
        "computing_used",
        "computing_version",
    )

    qpu_id: int
    computing_capacity: int = 20
    communication_capacity: int = 5
    epr_success_probability: Optional[float] = None
    _computing_used: Dict[str, int] = field(default_factory=dict, repr=False)
    _computing_version: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.computing_capacity <= 0:
            raise ValueError("computing capacity must be positive")
        if self.communication_capacity < 0:
            raise ValueError("communication capacity cannot be negative")
        if self.epr_success_probability is not None and not (
            0.0 < self.epr_success_probability <= 1.0
        ):
            raise ValueError("EPR success probability must lie in (0, 1]")

    # ------------------------------------------------------------------
    # Computing qubits (held for the duration of a job)
    # ------------------------------------------------------------------
    @property
    def computing_used(self) -> int:
        # detlint: ignore[DET003] integer qubit counts; sum is order-insensitive
        return sum(self._computing_used.values())

    @property
    def computing_available(self) -> int:
        return self.computing_capacity - self.computing_used

    @property
    def jobs(self) -> Set[str]:
        """Identifiers of jobs currently holding computing qubits here."""
        return set(self._computing_used)

    @property
    def computing_version(self) -> int:
        """Monotonic counter of computing-qubit mutations.

        Every effective ``allocate_computing``/``release_computing`` bumps it;
        :attr:`QuantumCloud.resource_version` sums these counters so
        version-keyed caches stay correct even when a QPU is mutated directly
        rather than through ``cloud.admit``/``cloud.release``.
        """
        return self._computing_version

    def allocate_computing(self, job_id: str, amount: int) -> None:
        """Reserve ``amount`` computing qubits for ``job_id``."""
        if amount <= 0:
            raise ValueError("allocation amount must be positive")
        if amount > self.computing_available:
            raise ResourceError(
                f"QPU {self.qpu_id}: requested {amount} computing qubits, "
                f"only {self.computing_available} available"
            )
        self._computing_used[job_id] = self._computing_used.get(job_id, 0) + amount
        self._computing_version += 1

    def release_computing(self, job_id: str) -> int:
        """Release every computing qubit held by ``job_id``; returns the count."""
        freed = self._computing_used.pop(job_id, 0)
        if freed:
            self._computing_version += 1
        return freed

    def computing_held_by(self, job_id: str) -> int:
        return self._computing_used.get(job_id, 0)

    # ------------------------------------------------------------------
    # Utilisation metrics (objective 2 of the placement formulation)
    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        """``Rem(V_i)`` of Eq. 2: unused computing qubits."""
        return self.computing_available

    @property
    def utilization(self) -> float:
        return self.computing_used / self.computing_capacity
