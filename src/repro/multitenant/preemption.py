"""Preemption policies and the work ledger for the multi-tenant simulator.

The source paper treats a placement as irrevocable: once a job holds
computing qubits it keeps them until completion (Sec. V-B, incoming-job
mode).  Under bursty overload that is exactly wrong for tail latency -- a
long-running job can pin capacity while queued arrivals expire in the
pending queue.  A *preemption policy* is the missing lever: at every
scheduler decision point it may evict running jobs back to the pending queue
(releasing their computing qubits).  A resumed job keeps its
already-succeeded EPR rounds and its local execution time, and so does a
job that a QPU drain live-migrates (see :mod:`repro.multitenant.faults`).

Policies are deterministic decision functions over a read-only
:class:`ClusterView`; none consume RNG, so seeded runs stay reproducible.
The default :class:`NeverPreempt` disables the machinery outright
(``enabled = False``), keeping seeded runs bit-identical to the
pre-preemption simulator -- pinned by golden and A/B regression tests.

Built-ins:

* :class:`NeverPreempt` -- the default; placements stay irrevocable.
* :class:`DeadlineRescue` -- when an admitted job is about to expire
  (queueing deadline within ``horizon``), evict the cheapest victims --
  least elapsed work first -- so the rescue costs as little wasted work as
  possible.

Where preemption sits in the event-driven flow (decision point ordering,
rescue-check events, resumed work) is documented in
``docs/architecture.md`` ("Preemption & migration").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cloud import Job


# ----------------------------------------------------------------------
# The action a policy can request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PreemptRequest:
    """Evict a running job back to the pending queue."""

    job_id: str


# ----------------------------------------------------------------------
# The read-only view policies decide over
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PendingJobView:
    """One job waiting in the pending queue at a decision point."""

    job_id: str
    num_qubits: int
    arrival_time: float
    waited: float
    #: Absolute expiry time from the admission policy, or None.
    deadline: Optional[float]
    #: Times already evicted (preempted jobs re-enter the queue).
    num_preemptions: int


@dataclass(frozen=True)
class RunningJobView:
    """One placed job holding computing qubits at a decision point."""

    job_id: str
    num_qubits: int
    start_time: float
    elapsed: float
    completed_ops: int
    total_ops: int

    @property
    def progress(self) -> float:
        """Fraction of remote operations already done (1.0 if none exist)."""
        if self.total_ops == 0:
            return 1.0
        return self.completed_ops / self.total_ops


@dataclass(frozen=True)
class ClusterView:
    """Snapshot handed to :meth:`PreemptionPolicy.decide` each decision point.

    ``pending`` is in batch-manager order (highest placement priority
    first); ``running`` is in deterministic job-id order; ``available`` is
    the free computing capacity of the online fleet.
    """

    now: float
    pending: Tuple[PendingJobView, ...]
    running: Tuple[RunningJobView, ...]
    available: int


# ----------------------------------------------------------------------
# Policy contract
# ----------------------------------------------------------------------
class PreemptionPolicy:
    """Decides, at each decision point, which running jobs to evict.

    Subclasses override :meth:`decide`; it must be a pure, deterministic
    function of the view (no RNG) so seeded runs stay reproducible.
    Policies may keep per-run state; the simulator calls :meth:`reset` at
    the start of every run.  A policy whose class sets ``enabled = False``
    switches the preemption machinery off entirely -- the simulator never
    builds a view, which is how :class:`NeverPreempt` stays bit-identical
    to the pre-preemption code path.
    """

    #: Human-readable policy name used in summaries and reports.
    name: str = "preemption"
    #: When False the simulator skips the preemption stage outright.
    enabled: bool = True

    def reset(self) -> None:
        """Clear per-run state; called once before each simulation run."""

    def decide(self, view: ClusterView) -> List[PreemptRequest]:
        """Evictions to apply at this decision point (may be empty)."""
        raise NotImplementedError

    def rescue_check_time(self, job: Job, deadline: float) -> Optional[float]:
        """Absolute time at which this job's fate should be re-examined.

        Called once per admitted job that received a queueing deadline; a
        non-None return makes the simulator schedule an extra decision point
        at that time (clamped to the arrival instant), so the policy gets a
        chance to act *before* the expiry event fires.
        """
        return None

    def checkpoint_state(self) -> Dict[str, Any]:
        """Json-serializable per-run state for a checkpoint snapshot.

        All built-in policies are pure functions of the view, so the base
        returns ``{}``; a stateful subclass must capture everything
        :meth:`reset` clears so a resumed run stays bit-identical.
        """
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`checkpoint_state` output (after :meth:`reset`)."""


class NeverPreempt(PreemptionPolicy):
    """The default: placements are irrevocable, exactly as in the paper.

    ``enabled = False`` short-circuits the whole preemption stage, so seeded
    runs are bit-identical to the pre-preemption simulator (pinned by golden
    and A/B regression tests).
    """

    name = "never-preempt"
    enabled = False

    def decide(self, view: ClusterView) -> List[PreemptRequest]:
        return []


def _victim_cost(victim: RunningJobView) -> Tuple[float, int, int, str]:
    """Cheapest-victim ordering: least elapsed work, then least banked EPR
    progress, then deterministic (len, lexicographic) job-id order."""
    return (
        victim.elapsed,
        victim.completed_ops,
        len(victim.job_id),
        victim.job_id,
    )


def _greedy_cover(
    victims: Sequence[RunningJobView], need: int
) -> Optional[List[RunningJobView]]:
    """Smallest prefix of ``victims`` freeing at least ``need`` qubits.

    Returns None when even evicting every candidate would not cover the
    need -- in that case evicting anything is pure waste.
    """
    chosen: List[RunningJobView] = []
    freed = 0
    for victim in victims:
        chosen.append(victim)
        freed += victim.num_qubits
        if freed >= need:
            return chosen
    return None


class DeadlineRescue(PreemptionPolicy):
    """Evict the cheapest victims when queued jobs are about to expire.

    A pending job whose queueing deadline lies within ``horizon`` of the
    decision point and that cannot fit into free capacity triggers a rescue:
    running jobs are evicted cheapest-first (least elapsed work) until that
    job's need is covered.  Imminent jobs are covered one at a time in
    batch-manager order, so when the victim pool cannot save everyone it
    still saves the savable prefix; a job that cannot be covered even by
    evicting every remaining victim is skipped without evicting anything
    for it -- wasting work without saving the expiring job is the worst of
    both worlds.

    Rescued victims re-enter the pending queue *without* a new queueing
    deadline (they were admitted once), so a rescue can never cascade into
    rescuing its own victims.
    """

    name = "deadline-rescue"

    def __init__(self, horizon: float) -> None:
        if not horizon > 0:
            raise ValueError("rescue horizon must be positive")
        self.horizon = float(horizon)

    def rescue_check_time(self, job: Job, deadline: float) -> Optional[float]:
        return deadline - self.horizon

    def decide(self, view: ClusterView) -> List[PreemptRequest]:
        # Walk *all* pending jobs in batch-manager order, debiting capacity
        # for every job the placement pass will seat -- a non-imminent job
        # ahead in the order consumes qubits an imminent one behind it
        # cannot have, so judging imminent jobs against raw free capacity
        # would under-rescue.
        victims = sorted(view.running, key=_victim_cost)
        next_victim = 0
        actions: List[PreemptRequest] = []
        available = view.available
        for pending in view.pending:
            if pending.num_qubits <= available:
                available -= pending.num_qubits
                continue
            imminent = (
                pending.deadline is not None
                and pending.deadline - view.now <= self.horizon
            )
            if not imminent:
                continue
            chosen = _greedy_cover(
                victims[next_victim:], pending.num_qubits - available
            )
            if chosen is None:
                continue  # individually unsavable: evict nothing for it
            next_victim += len(chosen)
            for victim in chosen:
                actions.append(PreemptRequest(victim.job_id))
                available += victim.num_qubits
            available -= pending.num_qubits
        return actions


# ----------------------------------------------------------------------
# Per-job progress ledger (owned by the simulator)
# ----------------------------------------------------------------------
@dataclass
class JobProgress:
    """What a job has banked across preemptions/migrations.

    A pure work ledger: the preemption/migration *event counts* live on the
    :class:`~repro.cloud.Job` itself (``num_preemptions``,
    ``num_migrations``), updated by the controller transitions, so there is
    a single source of truth for them.  ``completed_ops`` and
    ``elapsed_local`` are the credit a resumed job carries into its next
    placement; a job that ends the run evicted or failed reports them as
    wasted work.  ``first_placement_time`` is recorded at the first
    eviction so the job's queueing delay keeps measuring the wait for its
    *first* placement.
    """

    completed_ops: int = 0
    elapsed_local: float = 0.0
    first_placement_time: Optional[float] = field(default=None)

    def record_stop(self, start_time: float, completed_ops: int, now: float) -> None:
        """Fold one interrupted execution segment into the ledger."""
        if self.first_placement_time is None:
            self.first_placement_time = start_time
        self.completed_ops = completed_ops
        self.elapsed_local += now - start_time
