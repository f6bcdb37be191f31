"""Multi-tenant cluster simulation: placement + network scheduling over time.

This is the top of the CloudQC stack: a batch (or stream) of tenant circuits is
admitted by the batch manager, placed by a placement algorithm whenever enough
computing qubits are free, and executed over the shared quantum network, with
all concurrently running jobs competing for the same per-QPU communication
qubits every EPR round.  The output is the per-job completion time used for
the CDFs of Figs. 14-17 and the incoming-job mode of Sec. V-B.

Architecture
------------
The simulator runs on the discrete-event engine of :mod:`repro.sim.engine`.
Everything that moves the simulation forward is a timestamped event on one
:class:`~repro.sim.EventLoop`:

* *arrival* -- a tenant job enters the pending queue and immediately triggers a
  placement pass, so a job arriving while EPR rounds are in flight is placed at
  its arrival time whenever capacity is free (it is never starved waiting for
  an unrelated completion).  Every job -- from in-memory circuit lists and
  recorded traces alike -- enters through one *pending-arrival cursor*: a
  single outstanding event that mints the job at its arrival instant and then
  schedules itself for the next arrival;
* *tick* -- one scheduler decision point: retire finished jobs, run a placement
  pass over the pending queue in batch-manager order, and start the next EPR
  round if any placed job has front-layer remote operations;
* *EPR round end* -- one network round of ``epr_preparation`` time finishes;
  the successes sampled for that round unlock successor operations and the
  next decision point runs.

Every arrival first passes through the pluggable admission policy
(:mod:`repro.multitenant.admission`): rejected jobs never enter the pending
queue and are reported with ``outcome="rejected"``, and policies with a
queueing deadline get an *expiry* event per admitted job that drops it as
``outcome="expired"`` if placement has not succeeded in time.  The default
:class:`~repro.multitenant.AdmitAll` policy admits everything and keeps the
stream bit-identical to the pre-admission-control simulator.

Placements are no longer irrevocable: a pluggable *preemption policy*
(:mod:`repro.multitenant.preemption`) runs at every decision point between
retire and place, and may evict running jobs back to the pending queue; a
resumed job keeps its banked EPR successes.  The default
:class:`~repro.multitenant.NeverPreempt` disables the stage outright,
keeping seeded runs bit-identical to the paper's irrevocable-placement
behavior.

Idle gaps (no runnable remote operation) are skipped by scheduling the next
tick directly at the next completion time; the next arrival is always queued
by the cursor.  While rounds are in flight, completions are acted on at round
boundaries -- the scheduler's decision points -- which keeps pure batch mode
(all arrivals at t=0) bit-identical to the original round-stepped simulator.
Determinism comes from the event loop's insertion-order tiebreak plus a single
seeded RNG consumed in a fixed order.

The full event flow (arrival -> admission -> placement pass -> EPR rounds ->
completion) and the engine contract it relies on are documented in
``docs/architecture.md``.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..circuits import QuantumCircuit
from ..circuits.library import CIRCUIT_FAMILIES, parse_circuit_name
from ..cloud import QPU, Controller, Job, JobStatus, PlacementError, QuantumCloud
from ..cloud.job import job_counter_state, reserve_job_ids, set_job_counter
from ..community import CommunityError
from ..network import EPRModel
from ..placement import (
    MappingError,
    Placement,
    PlacementAlgorithm,
    PlacementContext,
)
from ..scheduling import NetworkScheduler, RemoteDAG
from ..sim import (
    DEFAULT_LATENCY,
    EventHandle,
    EventLoop,
    FrontLayer,
    LatencyModel,
    local_execution_time,
    run_epr_round,
)
from .admission import AdmissionPolicy, AdmitAll, JobOutcome
from .arrivals import _arrival_float
from .batch_manager import BatchManager, priority_batch_manager
from .checkpoint import (
    CheckpointConfig,
    CheckpointError,
    check_fingerprint,
    read_snapshot,
    write_snapshot,
)
from .faults import (
    FLEET_TIER,
    CalibrationWindow,
    FaultInjector,
    FleetEvent,
    QPUDrain,
    QPUFail,
    QPUJoin,
)
from .preemption import (
    ClusterView,
    JobProgress,
    NeverPreempt,
    PendingJobView,
    PreemptionPolicy,
    RunningJobView,
)
from .trace import (
    TraceCursor,
    TraceReader,
    TraceRecord,
    _fail as _trace_record_error,
    cached_circuit,
)

#: Event-loop tier of job-arrival events (see :meth:`EventLoop.schedule`).
#: The cursor schedules each arrival mid-run, after events already queued
#: for the same instant; the negative tier still runs the arrival first, so
#: the job is pending when that instant's tick/expiry/round-end event runs.
ARRIVAL_TIER = -1

#: A pending-arrival cursor item: ``(time, circuit, tenant, job id)``; a
#: ``None`` job id (trace records) takes the next id when the job is minted.
_Arrival = Tuple[float, QuantumCircuit, Any, Optional[str]]


class ClusterSimulationError(RuntimeError):
    """Raised when the multi-tenant simulation cannot make progress."""


#: Sentinel for :meth:`MultiTenantSimulator.resume_stream`'s ``checkpoint``
#: parameter: "keep checkpointing exactly as the snapshotted run did".
_INHERIT_CHECKPOINT = object()


def _record_arrivals(
    records: Iterable[TraceRecord], capacity: int
) -> Iterator[_Arrival]:
    """Trace records as cursor arrivals; each job's id is minted at arrival.

    A record naming a circuit the library cannot build raises
    :class:`~repro.multitenant.TraceFormatError` with the record's index
    (and its line, when a :class:`TraceCursor` reads it).  One naming a
    library circuit wider than the cloud's ``capacity`` raises
    :class:`ClusterSimulationError` before the circuit is built.
    """
    for index, record in enumerate(records):
        try:
            family, num_qubits = parse_circuit_name(record.circuit)
            if family in CIRCUIT_FAMILIES and num_qubits > capacity:
                raise ClusterSimulationError(
                    f"circuit {record.circuit} needs {num_qubits} qubits but "
                    f"the cloud only has {capacity}"
                )
            circuit = record.resolve_circuit()
        except (KeyError, ValueError) as exc:
            line = None
            if isinstance(records, TraceCursor):
                index, line = records.index - 1, records.line_no
            raise _trace_record_error(
                index, line, f"unknown circuit {record.circuit!r}: {exc}"
            ) from None
        yield record.arrival_time, circuit, record.tenant, None


@dataclass
class TenantJobResult:
    """Outcome of one tenant job in a multi-tenant run.

    Jobs dropped by the admission policy are reported too: ``outcome`` is
    :attr:`~repro.multitenant.JobOutcome.REJECTED` (turned away at arrival)
    or :attr:`~repro.multitenant.JobOutcome.EXPIRED` (queued past the
    policy's deadline), ``dropped_time`` records when the job left the
    system, and the placement/completion times are NaN.

    Preemption (see :mod:`repro.multitenant.preemption`) adds transit
    accounting: ``num_preemptions``/``num_migrations`` count how often the
    job was evicted or moved on its way to ``outcome``, and ``wasted_time``
    is the execution time whose work was discarded (non-zero only for jobs
    that ended preempted or failed: a resumed job keeps its work).  A job
    evicted and never resumed by the end of the run is reported with
    ``outcome="preempted"``: its ``placement_time`` records the *first*
    placement (it did run), completion stays NaN, and ``dropped_time`` is
    the final eviction instant.

    ``epr_rounds`` counts the EPR rounds the job's last placement took part
    in: every round in which it had a remote operation ready, granted
    communication qubits or not.
    """

    job_id: str
    circuit_name: str
    arrival_time: float
    placement_time: float
    completion_time: float
    num_remote_operations: int
    num_qpus_used: int
    outcome: JobOutcome = JobOutcome.COMPLETED
    dropped_time: Optional[float] = None
    num_preemptions: int = 0
    num_migrations: int = 0
    wasted_time: float = 0.0
    wasted_ops: int = 0
    epr_rounds: int = 0

    @property
    def completed(self) -> bool:
        """Whether the job ran to completion (vs. rejected / expired)."""
        return self.outcome == JobOutcome.COMPLETED

    @property
    def job_completion_time(self) -> float:
        """JCT measured from arrival (the paper's reported metric).

        NaN for jobs the admission policy dropped.
        """
        return self.completion_time - self.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting in the pending queue before first placement.

        For jobs that ran -- completed or stranded-preempted, both of which
        carry a real first ``placement_time`` -- this is the wait until that
        placement; for expired jobs the wait until the deadline dropped
        them.  Rejected jobs never queued, so their delay is NaN.
        """
        if not math.isnan(self.placement_time):
            return self.placement_time - self.arrival_time
        if self.outcome == JobOutcome.EXPIRED and self.dropped_time is not None:
            return self.dropped_time - self.arrival_time
        return math.nan


@dataclass
class _ActiveJob:
    job: Job
    placement: Placement
    remote_dag: RemoteDAG
    local_time: float
    start_time: float
    front: FrontLayer = field(init=False, repr=False)
    completion_time: Optional[float] = None
    #: Operations whose success was sampled for the in-flight EPR round but
    #: whose round has not ended yet.  A preemption mid-round must not bank
    #: them: the job loses its qubits before the round completes.
    in_flight_ops: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.front = FrontLayer(self.remote_dag, start_time=self.start_time)
        if self.remote_dag.num_operations == 0:
            self.completion_time = self.start_time + self.local_time

    @property
    def completed_ops(self) -> int:
        return self.front.completed

    def finish_operation(self, node_id: int, finish_time: float) -> None:
        self.front.finish(node_id, finish_time)
        if self.front.done:
            self.completion_time = max(
                self.start_time + self.local_time, self.front.last_finish
            )

    def restore_progress(self, completed_ops: int, now: float) -> None:
        """Credit the EPR rounds a resumed job already banked (no RNG)."""
        if self.remote_dag.num_operations == 0 or completed_ops <= 0:
            return
        self.front.fast_forward(completed_ops, now)
        if self.front.done:
            self.completion_time = max(
                self.start_time + self.local_time, self.front.last_finish
            )


class _EventDrivenBatch:
    """State of one :meth:`MultiTenantSimulator.run_batch` invocation.

    At most one *tick* event is outstanding at any moment (round-end events
    run the same logic but are tracked separately); an arrival that needs an
    earlier decision point pulls the outstanding tick forward via
    :meth:`EventLoop.reschedule` instead of stacking a second one.
    """

    #: Attributes deliberately absent from ``_capture_state`` snapshots.
    #: Every entry must say why skipping it cannot cause resume divergence;
    #: detlint's CKPT001 flags any new ``self.`` attribute missing from both
    #: the snapshot and this mapping.
    _CHECKPOINT_EXCLUDE = {
        "simulator": "back-reference to the owning MultiTenantSimulator; the resume path reconstructs the batch from the simulator",
        "latency": "immutable LatencyModel owned by the simulator config; a resume rebuilds it from the run fingerprint",
        "round_tail": "derived from the latency model in __init__ and never mutated",
        "communication_capacity": "per-QPU communication qubits of the fleet members; _restore_cloud rebuilds it from the restored 'cloud' key",
        "epr_model": "EPR success model from the simulator config; its pair table is a cache of live path probabilities, emptied on restore by _restore_cloud",
        "controller": "its live state is the 'jobs' and 'cloud' snapshot keys; the controller object itself is rebuilt on restore",
        "loop": "captured as the 'engine' key via EventLoop.snapshot_state",
        "faults": "fleet-event schedule is regenerated from the seeded spec on restore; already-applied events are reflected in 'cloud'",
        "incremental": "derived flag recomputed from the placement strategy in __init__",
        "placement_context": "memo of interaction graphs (CSR form), partitions, quotients, detected communities, community/BFS QPU sets and topology centers, each a pure function of its key; a cold context after restore recomputes bit-identical placements",
        "min_pending_qubits": "pruning hint derived from the pending queue; _restore_state recomputes it from the restored 'pending' key",
        "preemption_enabled": "derived from the preemption policy type in __init__",
        "expiry_handles": "event-loop handles; _restore_state re-binds them from the restored 'engine' events labelled expire:<job id>",
        "tick_handle": "event-loop handle; _restore_state re-binds it from the restored 'engine' event labelled tick",
        "_trace_info": "captured as the 'trace' key",
        "_arrivals": "live arrival iterator; a resumed run re-opens the trace and seeks via the 'cursor' key",
        "_trace_cursor": "captured as the 'cursor' key via TraceCursor checkpointing",
        "_signal_flag": "transient kill-signal latch; a snapshot is always taken with the flag clear",
        "_job_capture_cache": "memo for _capture_job keyed by object identity; identity does not survive a restore",
        "_captured_results": "memo of already-serialized results; rebuilt lazily after restore",
    }

    def __init__(
        self,
        simulator: "MultiTenantSimulator",
        arrivals: Optional[Iterator[_Arrival]],
        seed: Optional[int],
        telemetry=None,
        keep_results: bool = True,
        checkpoint: Optional[CheckpointConfig] = None,
        trace_info: Optional[Dict[str, Any]] = None,
        trace_cursor: Optional[TraceCursor] = None,
        restoring: bool = False,
    ) -> None:
        self.simulator = simulator
        # Streaming telemetry (see repro.multitenant.telemetry): the sink is
        # strictly observational -- no RNG, no control flow -- so attaching
        # one leaves seeded runs bit-identical; telemetry=None (the default)
        # skips every hook with a single None check.
        self.telemetry = telemetry
        self.keep_results = keep_results
        # Checkpointing (see repro.multitenant.checkpoint): snapshots are
        # taken only *between* events, so arming it adds no events to the
        # queue and checkpoint=None keeps the run bit-identical.
        self._seed = seed
        self._checkpoint = checkpoint
        self._trace_info = trace_info
        self._pending_record: Optional[Dict[str, Any]] = None
        self._results_recorded = 0
        self._signal_flag: Optional[int] = None
        # Capture caches: a COMPLETED job and a recorded result are frozen,
        # so repeated snapshots reuse their captured form instead of
        # re-serializing every finished job (on a long keep_results=True
        # run each snapshot would otherwise cost O(finished jobs)).
        self._job_capture_cache: Dict[str, Dict[str, Any]] = {}
        self._captured_results: List[Dict[str, Any]] = []
        self.cloud = simulator.template_cloud.clone_empty()
        # The per-QPU probability hook reads this cloud.  The model's pair
        # table is emptied wherever an override or the fleet changes
        # (calibration start and end, _refresh_fleet), so a calibration
        # window takes effect on the next round.  With no overrides set the
        # model resolves to the cloud-wide constant bit-for-bit.
        self.epr_model = EPRModel(
            self.cloud.topology,
            simulator.epr_success_probability,
            qpu_probability=self.cloud.qpu_epr_probability,
        )
        self._refresh_fleet()
        self.latency = simulator.latency
        self.round_tail = self.latency.two_qubit_gate + self.latency.measurement
        self.rng = np.random.default_rng(seed)
        self.controller = Controller(self.cloud)
        self.admission = simulator.admission_policy
        self.admission.reset()
        self.pending: List[Job] = []
        # Smallest computing-qubit need in the pending queue, maintained
        # incrementally so a saturated decision point can skip the whole
        # placement pass in O(1) instead of scanning thousands of jobs.
        self.min_pending_qubits = math.inf
        # Placement fast path (see docs/architecture.md): one context memoizes
        # circuit- and resource-version-keyed placement inputs for the whole
        # run, and failure signatures record the (resource_version,
        # required_qubits) under which a job's last attempt failed so
        # provably-identical re-attempts are skipped.
        self.incremental = simulator.incremental_placement
        self.placement_context = PlacementContext() if self.incremental else None
        self.failure_signatures: Dict[str, Tuple[int, int]] = {}
        # Preemption & migration (see docs/architecture.md): the policy runs
        # at every decision point between retire and place.  NeverPreempt
        # (the default) sets enabled=False, which skips the stage outright
        # so seeded runs stay bit-identical to the pre-preemption simulator.
        self.preemption = simulator.preemption_policy
        self.preemption.reset()
        self.preemption_enabled = bool(self.preemption.enabled)
        self.progress: Dict[str, JobProgress] = {}
        self.active: Dict[str, _ActiveJob] = {}
        self.expiry_handles: Dict[str, EventHandle] = {}
        self.results: List[TenantJobResult] = []
        self.resources_changed = True  # place on the first decision point
        self.round_end_time: Optional[float] = None
        self.tick_handle: Optional[EventHandle] = None
        self.loop = EventLoop()
        self.tenants: Dict[str, object] = {}
        # Fleet dynamics (see repro.multitenant.faults): scheduled fleet
        # events run at FLEET_TIER (before same-instant arrivals and ticks).
        # With no injector attached none of this schedules anything, so the
        # run stays bit-identical to the fault-free simulator.
        self.faults: Optional[FaultInjector] = simulator.fault_injector
        self._departed_capacities: Dict[int, Tuple[int, int]] = {}
        self._calibration_restore: Dict[int, Optional[float]] = {}
        self._stream_exhausted = False
        if self.faults is not None and not restoring:
            # The schedule index in the label lets a checkpoint restore
            # re-bind each event to self.faults.events[index] even when two
            # events share a type, QPU and instant.
            for index, fleet_event in enumerate(self.faults.events):
                self.loop.schedule_at(
                    fleet_event.time,
                    self._fleet_callback(fleet_event),
                    label=(
                        f"fleet:{index}:{type(fleet_event).__name__}:"
                        f"{fleet_event.qpu_id}"
                    ),
                    tier=FLEET_TIER,
                )
        # The pending-arrival cursor (see docs/architecture.md, "Lazy
        # replay: the pending-arrival cursor"): a single event walks the
        # arrival stream -- each firing mints exactly one job at its arrival
        # instant, runs the arrival lifecycle, and schedules the cursor for
        # the next arrival.  Peak memory is then O(in-flight jobs), not
        # O(workload).  execute() starts the cursor and closes a path
        # trace's ``trace_cursor``.
        self._arrivals = arrivals
        self._trace_cursor = trace_cursor
        self._stream_index = 0
        self._last_stream_arrival: Optional[float] = None

    @classmethod
    def from_circuits(
        cls,
        simulator: "MultiTenantSimulator",
        circuits: Sequence[QuantumCircuit],
        arrival_times: Sequence[float],
        seed: Optional[int],
        tenants: Optional[Sequence] = None,
        **kwargs: Any,
    ) -> "_EventDrivenBatch":
        """A batch fed an in-memory workload through the arrival cursor.

        Job ids are reserved in list order and the arrivals stable-sorted by
        time, so each job keeps the id its list position gives it and
        equal-time arrivals run in list order.
        """
        first = reserve_job_ids(len(circuits))
        if tenants is None:
            tenants = [None] * len(circuits)
        arrivals = (
            (arrival_times[i], circuits[i], tenants[i], f"job-{first + i}")
            for i in sorted(range(len(circuits)), key=arrival_times.__getitem__)
        )
        return cls(simulator, arrivals, seed, **kwargs)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_arrival(self, job: Job, now: float) -> None:
        """Run the arrival lifecycle for one job at its arrival instant."""
        if self.telemetry is not None:
            self.telemetry.job_arrived(
                job.job_id,
                now,
                circuit=job.circuit.name,
                num_qubits=job.num_qubits,
                tenant=self.tenants.get(job.job_id),
            )
        if not self.admission.admit(job, now, len(self.pending)):
            # One drop transition for every removal path: the controller
            # releases reservations iff the job actually holds any (a
            # rejected job never did), so the drop cannot disturb the
            # cloud's resource version.
            self.controller.drop(job)
            self._record_result(
                self._dropped_result(job, JobOutcome.REJECTED, now)
            )
            return
        self.pending.append(job)
        if self.telemetry is not None:
            self.telemetry.job_admitted(job.job_id, now)
        self.min_pending_qubits = min(
            self.min_pending_qubits, job.num_qubits
        )
        deadline = self.admission.queueing_deadline(job)
        if deadline is not None:
            self.expiry_handles[job.job_id] = self.loop.schedule_at(
                max(deadline, now),
                self._expiry_callback(job),
                label=f"expire:{job.job_id}",
            )
            if self.preemption_enabled:
                # Give the policy a decision point *before* the expiry
                # event fires (e.g. DeadlineRescue's horizon check).
                check = self.preemption.rescue_check_time(job, deadline)
                if check is not None:
                    self.loop.schedule_at(
                        max(check, now),
                        self._rescue_check_callback(job.job_id),
                        label=f"preempt-check:{job.job_id}",
                    )
        self.resources_changed = True
        self._request_tick(now)

    def _schedule_next_arrival(self) -> None:
        """Advance the pending-arrival cursor to the next arrival.

        At most one cursor event is ever outstanding: each firing mints one
        job, feeds it through :meth:`_handle_arrival`, and schedules the
        cursor for the following arrival, so the whole workload is walked
        with O(1) arrival events in the queue.  Arrivals are validated as
        the cursor reaches them, since a trace may come straight off disk
        (an in-memory workload was already validated in full by
        :meth:`MultiTenantSimulator.run_batch`).
        """
        item = next(self._arrivals, None)
        if item is None:
            self._stream_exhausted = True
            return
        raw_arrival, circuit, tenant, job_id = item
        index = self._stream_index
        self._stream_index += 1
        arrival = _arrival_float(raw_arrival)
        if not math.isfinite(arrival):
            raise ValueError(
                f"trace record #{index}: arrival time is not finite: "
                f"{raw_arrival!r}"
            )
        if arrival < 0:
            raise ValueError("arrival times cannot be negative")
        if (
            self._last_stream_arrival is not None
            and arrival < self._last_stream_arrival
        ):
            raise ValueError(
                f"trace records are not sorted: record #{index} arrives at "
                f"{arrival}, before the previous record's "
                f"{self._last_stream_arrival}"
            )
        self._last_stream_arrival = arrival
        # The consumed-but-unfired record is part of the checkpointable
        # state: the cursor's file offset already points past it, so a
        # snapshot taken before the arrival event fires must carry it.
        self._pending_record = {
            "arrival": arrival,
            "circuit": circuit.name,
            "tenant": tenant,
            "index": index,
        }
        self.loop.schedule_at(
            arrival,
            self._cursor_callback(circuit, job_id),
            label=f"arrive:trace[{index}]",
            tier=ARRIVAL_TIER,
        )

    def _cursor_callback(
        self,
        circuit: Optional[QuantumCircuit] = None,
        job_id: Optional[str] = None,
    ):
        """Arrival callback minting the job of the pending arrival.

        A checkpoint restore re-binds the cursor event from the snapshotted
        :attr:`_pending_record` alone: only trace replays are checkpointed,
        so the circuit is the library circuit of the record's name and the
        job takes the next id.
        """
        pending = self._pending_record
        arrival = float(pending["arrival"])
        if circuit is None:
            circuit = cached_circuit(pending["circuit"])
        tenant = pending["tenant"]

        def on_cursor(loop: EventLoop) -> None:
            self._pending_record = None
            job = self.controller.submit(
                circuit, arrival_time=arrival, job_id=job_id
            )
            if tenant is not None:
                self.tenants[job.job_id] = tenant
            self._handle_arrival(job, loop.now)
            self._schedule_next_arrival()

        return on_cursor

    def _expiry_callback(self, job: Job):
        def on_expiry(loop: EventLoop) -> None:
            self.expiry_handles.pop(job.job_id, None)
            if job.status is not JobStatus.PENDING:
                return  # defensive: placement cancels the expiry event
            self.pending = [
                pending for pending in self.pending
                if pending.job_id != job.job_id
            ]
            if job.num_qubits <= self.min_pending_qubits:
                self._recompute_min_pending()
            self.failure_signatures.pop(job.job_id, None)
            self.controller.drop(job)
            self._record_result(
                self._dropped_result(job, JobOutcome.EXPIRED, loop.now)
            )

        return on_expiry

    def _rescue_check_callback(self, job_id: str):
        # Bound to the id, not the Job: the job may finish before its check
        # fires, and a keep_results=False run then forgets it.
        def on_check(loop: EventLoop) -> None:
            job = self.controller.jobs.get(job_id)
            if job is not None and job.status is JobStatus.PENDING:
                # An extra decision point; ticks are idempotent, so running
                # one here alongside an outstanding tick event is harmless.
                self._tick(loop)

        return on_check

    def _recompute_min_pending(self) -> None:
        self.min_pending_qubits = min(
            (job.num_qubits for job in self.pending), default=math.inf
        )

    def _request_tick(self, time: float) -> None:
        """Ensure a decision point runs no later than ``time``."""
        if self.round_end_time is not None and time >= self.round_end_time:
            # The round-end event is an earlier-or-equal decision point and
            # recomputes any later needs itself.
            return
        if self.tick_handle is not None and not self.tick_handle.cancelled:
            if self.tick_handle.time <= time:
                return
            self.tick_handle = self.loop.reschedule(self.tick_handle, time)
            return
        self.tick_handle = self.loop.schedule_at(time, self._tick, label="tick")

    def _tick(self, loop: EventLoop) -> None:
        """One scheduler decision point: retire, preempt, place, start the
        next round."""
        self.tick_handle = None
        now = loop.now
        self._retire(now)
        evicted = self._run_preemption(now) if self.preemption_enabled else []
        self._place(now)
        if evicted:
            # Victims rejoin the queue only after the beneficiaries of their
            # eviction had their placement pass (an earlier-arrived victim
            # would otherwise win the freed qubits right back under FIFO
            # ordering); a second pass then lets them use leftover capacity.
            self._requeue(evicted)
            self._place(now)
        if self.round_end_time is not None:
            return  # a round is in flight; its end event continues the chain
        runnable = [
            (job_id, state.front)
            for job_id, state in self.active.items()
            if state.front.ready
        ]
        if runnable:
            self._start_round(loop, runnable)
            return
        # Idle: nothing runnable and no round in flight.  Wake at the next
        # completion; future arrivals are already queued as events.
        completions = [
            state.completion_time
            for state in self.active.values()
            if state.completion_time is not None
        ]
        overdue = [t for t in completions if t <= now]
        upcoming = [t for t in completions if t > now]
        if overdue:
            self._request_tick(now)
        elif upcoming:
            self._request_tick(min(upcoming))

    def _on_round_end(self, loop: EventLoop) -> None:
        self.round_end_time = None
        for state in self.active.values():
            # This round's sampled successes are now real: the entanglement
            # exists, only the local tail remains, so they become bankable.
            state.in_flight_ops = 0
        self._tick(loop)

    # ------------------------------------------------------------------
    # Decision-point stages
    # ------------------------------------------------------------------
    def _retire(self, now: float) -> None:
        finished = [
            state
            for state in self.active.values()
            if state.completion_time is not None and state.completion_time <= now
        ]
        for state in finished:
            self.controller.complete(state.job, state.completion_time)
            self._record_result(self._result(state))
            del self.active[state.job.job_id]
            self.resources_changed = True

    def _place(self, now: float) -> None:
        if not (self.resources_changed and self.pending):
            return
        available = self.cloud.total_computing_available()
        if available < self.min_pending_qubits:
            # Saturated cloud: every job in the queue would fail the capacity
            # check, so the whole pass is a no-op (and would consume no RNG).
            # Skipping it keeps a decision point O(1) under overload instead
            # of O(queue length), which is what makes replaying multi-
            # thousand-job traces tractable.
            self.resources_changed = False
            return
        placed: Set[str] = set()
        # The resource version only moves inside this loop when a placement
        # is admitted, so read it once per pass and refresh after successes
        # instead of re-summing the per-QPU counters for every pending job.
        version = self.cloud.resource_version
        for job in self.simulator.batch_manager.order(self.pending, now=now):
            # A successful placement reserves exactly one computing qubit per
            # circuit qubit, so the running total stays exact without
            # re-summing every QPU for every queued job.
            if job.num_qubits > available:
                continue
            # Every attempted job draws its placement seed here, whether the
            # attempt runs or is skipped -- the RNG stream must be identical
            # in both cases for seeded runs to stay bit-for-bit reproducible.
            attempt_seed = int(self.rng.integers(1 << 31))
            signature = (version, job.num_qubits)
            if (
                self.incremental
                and self.failure_signatures.get(job.job_id) == signature
            ):
                # The job's last attempt failed at this exact resource
                # version, i.e. at an identical availability map and fleet.
                # CloudQC, CloudQC-BFS and Random placement give the same
                # outcome there for every seed (a Hypothesis property in
                # tests/test_placement_determinism.py), so it would fail
                # again.  Other algorithms: incremental_placement=False
                # recomputes every attempt.
                continue
            placement = self._try_place(job, attempt_seed)
            if placement is None:
                self.failure_signatures[job.job_id] = signature
                continue
            self.failure_signatures.pop(job.job_id, None)
            # Activation checks the placement can run at all, so it comes
            # before the controller admits a mapping onto an off-fleet QPU.
            self._activate(job, placement, now)
            self.controller.place(job, placement.mapping)
            self.controller.start(job, now)
            version = self.cloud.resource_version
            available -= job.num_qubits
            placed.add(job.job_id)
            if self.telemetry is not None:
                first = job.num_preemptions == 0 and job.num_migrations == 0
                self.telemetry.job_placed(
                    job.job_id,
                    now,
                    qpus=job.qubits_per_qpu().keys(),
                    first=first,
                    wait=(now - job.arrival_time) if first else None,
                )
        if placed:
            # One rebuild instead of a per-job list.remove keeps a decision
            # point linear in the pending-queue length.
            self.pending = [
                job for job in self.pending if job.job_id not in placed
            ]
            for job_id in placed:
                handle = self.expiry_handles.pop(job_id, None)
                if handle is not None:
                    handle.cancel()
            self._recompute_min_pending()
        self.resources_changed = bool(placed)

    def _activate(self, job: Job, placement: Placement, now: float) -> _ActiveJob:
        """Build the execution state for a (re-)placed job.

        A job that was preempted or migrated carries a :class:`JobProgress`
        ledger; its banked local execution time and already-succeeded EPR
        rounds are credited here, so resumed work is never redone.

        Raises :class:`ClusterSimulationError` when a remote operation needs
        a QPU without communication qubits (or outside the fleet): it could
        never be granted a pair, so the run would spin through EPR rounds
        until ``max_events``.
        """
        remote_dag = RemoteDAG(job.circuit, placement.mapping)
        capacity = self.communication_capacity
        for operation in remote_dag:
            for qpu_id in operation.qpus:
                if capacity.get(qpu_id, 0) < 1:
                    raise ClusterSimulationError(
                        f"job {job.job_id}: remote operation "
                        f"{operation.node_id} needs QPU {qpu_id}, which has "
                        "no communication qubits, so it can never run"
                    )
        local_time = local_execution_time(job.circuit, self.latency)
        prog = self.progress.get(job.job_id)
        if prog is not None:
            local_time = max(0.0, local_time - prog.elapsed_local)
        state = _ActiveJob(
            job=job,
            placement=placement,
            remote_dag=remote_dag,
            local_time=local_time,
            start_time=now,
        )
        if prog is not None and prog.completed_ops > 0:
            state.restore_progress(prog.completed_ops, now)
        self.active[job.job_id] = state
        return state

    # ------------------------------------------------------------------
    # Preemption & migration stage
    # ------------------------------------------------------------------
    def _run_preemption(self, now: float) -> List[Job]:
        """Let the policy evict running jobs at this decision point.

        Returns the evicted jobs; the caller requeues them *after* the
        placement pass so the jobs the eviction was for are seated first.
        """
        if not self.active:
            return []
        evicted: List[Job] = []
        for action in self.preemption.decide(self._cluster_view(now)):
            state = self.active.get(action.job_id)
            if state is None:
                continue  # stale id: already retired or evicted this pass
            if state.completion_time is not None and state.completion_time <= now:
                continue  # effectively finished; retiring beats evicting
            self._preempt(state, now)
            evicted.append(state.job)
        return evicted

    def _requeue(self, evicted: Sequence[Job]) -> None:
        for job in evicted:
            self.pending.append(job)
            self.min_pending_qubits = min(
                self.min_pending_qubits, job.num_qubits
            )
            if self.telemetry is not None:
                self.telemetry.job_requeued(job.job_id, self.loop.now)
        self.resources_changed = True

    def _cluster_view(self, now: float) -> ClusterView:
        pending = tuple(
            PendingJobView(
                job_id=job.job_id,
                num_qubits=job.num_qubits,
                arrival_time=job.arrival_time,
                waited=now - job.arrival_time,
                deadline=self._deadline_of(job),
                num_preemptions=job.num_preemptions,
            )
            for job in self.simulator.batch_manager.order(self.pending, now=now)
        )
        running = []
        for job_id, state in sorted(
            self.active.items(), key=lambda item: (len(item[0]), item[0])
        ):
            snapshot = state.front.snapshot()
            running.append(
                RunningJobView(
                    job_id=job_id,
                    num_qubits=state.job.num_qubits,
                    start_time=state.start_time,
                    elapsed=now - state.start_time,
                    completed_ops=snapshot["completed"],
                    total_ops=snapshot["total"],
                )
            )
        return ClusterView(
            now=now,
            pending=pending,
            running=tuple(running),
            available=self.cloud.total_computing_available(),
        )

    def _deadline_of(self, job: Job) -> Optional[float]:
        handle = self.expiry_handles.get(job.job_id)
        if handle is None or handle.cancelled:
            return None
        return handle.time

    def _record_stop(self, state: _ActiveJob, now: float) -> None:
        """Settle a stopped placement's work into the job's progress ledger."""
        self.progress.setdefault(state.job.job_id, JobProgress()).record_stop(
            start_time=state.start_time,
            # Ops sampled for the still-in-flight round never finished: the
            # job loses its qubits mid-round, so they are not banked.
            completed_ops=state.completed_ops - state.in_flight_ops,
            now=now,
        )

    def _preempt(self, state: _ActiveJob, now: float) -> None:
        """RUNNING -> PENDING: free the qubits, requeue, settle the ledger."""
        job = state.job
        self._record_stop(state, now)
        self.controller.preempt(job, now)
        if self.telemetry is not None:
            self.telemetry.job_preempted(job.job_id, now, job.num_preemptions)
        del self.active[job.job_id]
        # The caller requeues the job after the placement pass; no fresh
        # expiry is ever scheduled for it (the job was admitted once), so a
        # rescue can never cascade onto its own victims.
        self.failure_signatures.pop(job.job_id, None)
        self.resources_changed = True

    def _attempt_migration(
        self, state: _ActiveJob, now: float, exclude_qpu: int
    ) -> bool:
        """Try re-placing a running job off a draining QPU; commit any fit.

        The attempt runs against a what-if view of the cloud minus the job's
        own reservation (:meth:`QuantumCloud.preview_without`) and minus the
        draining QPU (:meth:`QuantumCloud.without_qpu`), which leaves the
        resource version -- and every failure signature / placement cache
        keyed by it -- untouched when nothing is committed.  It bypasses the
        shared placement context: the preview's rolled-back versions must
        never enter a version-keyed cache.  *Any* feasible placement off the
        QPU beats an eviction, so the first one found is committed.
        """
        job = state.job
        # One placement seed per attempt, committed or not.
        seed = int(self.rng.integers(1 << 31))
        with self.cloud.preview_without(job.job_id), self.cloud.without_qpu(
            exclude_qpu
        ):
            try:
                placement = self.simulator.placement_algorithm.place(
                    job.circuit, self.cloud, seed=seed, context=None
                )
            except (MappingError, CommunityError, PlacementError):
                return False
        self._record_stop(state, now)
        self.controller.migrate(job, placement.mapping, now)
        self._activate(job, placement, now)
        if self.telemetry is not None:
            self.telemetry.job_migrated(job.job_id, now, job.num_migrations)
        self.resources_changed = True
        return True

    # ------------------------------------------------------------------
    # Fleet dynamics (see repro.multitenant.faults)
    # ------------------------------------------------------------------
    def _fleet_callback(self, event: FleetEvent):
        def on_fleet(loop: EventLoop) -> None:
            self._handle_fleet_event(event, loop.now)

        return on_fleet

    def _handle_fleet_event(self, event: FleetEvent, now: float) -> None:
        if isinstance(event, CalibrationWindow):
            self._start_calibration(event, now)
            return  # EPR-only change: no placement decision point needed
        if isinstance(event, QPUJoin):
            changed = self._join_qpu(event, now)
        elif isinstance(event, QPUDrain):
            changed = self._drain_qpu(event.qpu_id, now)
        elif isinstance(event, QPUFail):
            changed = self._fail_qpu(event.qpu_id, now)
        else:  # pragma: no cover - defensive
            raise ClusterSimulationError(f"unknown fleet event {event!r}")
        if changed:
            self.resources_changed = True
            self._request_tick(now)

    def _join_qpu(self, event: QPUJoin, now: float) -> bool:
        """A QPU comes online (join or recovery); idempotent for members."""
        if event.qpu_id in self.cloud.qpus:
            return False
        remembered = self._departed_capacities.get(event.qpu_id)
        computing = event.computing_capacity
        communication = event.communication_capacity
        if computing is None or communication is None:
            if remembered is None:
                raise ClusterSimulationError(
                    f"QPU {event.qpu_id} joined without capacities and never "
                    "left the fleet earlier in this run; spell them out"
                )
            computing = computing if computing is not None else remembered[0]
            communication = (
                communication if communication is not None else remembered[1]
            )
        self.cloud.add_qpu(
            QPU(
                qpu_id=event.qpu_id,
                computing_capacity=computing,
                communication_capacity=communication,
            )
        )
        self._refresh_fleet()
        if self.telemetry is not None:
            self.telemetry.qpu_joined(event.qpu_id, now)
        return True

    def _remove_qpu(self, qpu_id: int) -> None:
        """Take an idle QPU out of the fleet, remembering its capacities."""
        qpu = self.cloud.remove_qpu(qpu_id)
        self._refresh_fleet()
        self._departed_capacities[qpu_id] = (
            qpu.computing_capacity,
            qpu.communication_capacity,
        )

    def _fail_qpu(self, qpu_id: int, now: float) -> bool:
        """Abrupt failure: every job holding qubits here is interrupted.

        In-flight EPR work is lost (the eviction banks ``completed_ops -
        in_flight_ops``, exactly like a policy preemption); the jobs are
        then requeued or dropped terminally (outcome ``failed``) per the
        injector's ``on_failure`` mode -- exactly once each.  Failing a non-member or the last fleet member is
        a no-op (the simulator never runs on an empty cloud).
        """
        if qpu_id not in self.cloud.qpus or self.cloud.num_qpus == 1:
            return False
        # Retire jobs that already finished before the failure instant so a
        # completed job is never counted as interrupted.
        self._retire(now)
        drop = self.faults.on_failure == "drop"
        affected = self.controller.jobs_on(qpu_id)
        if self.telemetry is not None:
            self.telemetry.qpu_failed(qpu_id, now, interrupted=len(affected))
        requeued: List[Job] = []
        for job in affected:
            state = self.active.get(job.job_id)
            if state is None:  # pragma: no cover - defensive
                continue
            if drop:
                self._fail_job(state, now)
            else:
                self._preempt(state, now)
                requeued.append(job)
        self._remove_qpu(qpu_id)
        if requeued:
            self._requeue(requeued)
        return True

    def _fail_job(self, state: _ActiveJob, now: float) -> None:
        """Terminal fault drop: the job leaves with outcome ``failed``."""
        job = state.job
        self._record_stop(state, now)
        self.controller.drop(job)
        del self.active[job.job_id]
        self.failure_signatures.pop(job.job_id, None)
        self.resources_changed = True
        self._record_result(self._dropped_result(job, JobOutcome.FAILED, now))

    def _drain_qpu(self, qpu_id: int, now: float) -> bool:
        """Graceful decommission: migrate jobs off, requeue the rest.

        Each affected job is live-migrated via :meth:`Controller.migrate`
        onto a placement computed with the draining QPU hidden; jobs with no
        feasible placement are preempted and requeued (keeping banked
        work).  Either way every job is handled exactly once, after which
        the idle QPU leaves the fleet.
        """
        if qpu_id not in self.cloud.qpus or self.cloud.num_qpus == 1:
            return False
        self._retire(now)
        affected = self.controller.jobs_on(qpu_id)
        migrated = 0
        requeued: List[Job] = []
        for job in affected:
            state = self.active.get(job.job_id)
            if state is None:  # pragma: no cover - defensive
                continue
            if self._attempt_migration(state, now, exclude_qpu=qpu_id):
                migrated += 1
            else:
                self._preempt(state, now)
                requeued.append(job)
        self._remove_qpu(qpu_id)
        if self.telemetry is not None:
            self.telemetry.qpu_drained(
                qpu_id, now, migrated=migrated, requeued=len(requeued)
            )
        if requeued:
            self._requeue(requeued)
        return True

    def _start_calibration(self, event: CalibrationWindow, now: float) -> None:
        """Degrade the QPU's EPR probability for the window's duration."""
        if event.qpu_id not in self.cloud.qpus:
            return
        if self.telemetry is not None:
            self.telemetry.calibration_started(
                event.qpu_id, now, event.epr_success_probability
            )
        # Overlapping windows on one QPU keep the oldest saved value; both
        # ends restore it (the second restore is a harmless no-op).
        self._calibration_restore.setdefault(
            event.qpu_id, self.cloud.qpu_epr_probability(event.qpu_id)
        )
        self.cloud.set_qpu_epr_probability(
            event.qpu_id, event.epr_success_probability
        )
        self.epr_model.clear_pair_table()
        self.loop.schedule_at(
            now + event.duration,
            self._calibration_end_callback(event.qpu_id),
            label=f"calibration-end:{event.qpu_id}",
            tier=FLEET_TIER,
        )

    def _calibration_end_callback(self, qpu_id: int):
        def on_end(loop: EventLoop) -> None:
            restore = self._calibration_restore.pop(qpu_id, None)
            if qpu_id in self.cloud.qpus:
                # A QPU that failed mid-window and rejoined came back with a
                # fresh default; only a still-present member is restored.
                self.cloud.set_qpu_epr_probability(qpu_id, restore)
                self.epr_model.clear_pair_table()
            if self.telemetry is not None:
                self.telemetry.calibration_ended(qpu_id, loop.now)

        return on_end

    def _refresh_fleet(self) -> None:
        """Re-read the fleet members' communication qubits and empty the
        EPR model's pair table.

        Membership changes only when a QPU joins or leaves, or a snapshot is
        restored; each of those calls this, so rounds and activation checks
        read one dict instead of rebuilding it from the cloud every round.
        A QPU's EPR override applies to its links only while it is a member,
        and a restore brings back the snapshot's overrides, so each of those
        changes can move a pair's path probability.
        """
        self.communication_capacity = {
            qpu_id: qpu.communication_capacity
            for qpu_id, qpu in self.cloud.qpus.items()
        }
        self.epr_model.clear_pair_table()

    def _start_round(
        self, loop: EventLoop, runnable: Sequence[Tuple[str, FrontLayer]]
    ) -> None:
        """Allocate communication qubits, sample this round's EPR successes."""
        successes = run_epr_round(
            runnable,
            self.communication_capacity,
            self.simulator.network_scheduler,
            self.epr_model,
            self.rng,
        )
        round_end = loop.now + self.latency.epr_preparation
        finish = round_end + self.round_tail
        active = self.active
        for job_id, node_id in successes:
            state = active[job_id]
            state.finish_operation(node_id, finish)
            state.in_flight_ops += 1
        self.round_end_time = round_end
        loop.schedule_at(round_end, self._on_round_end, label="epr-round")

    def _try_place(self, job: Job, seed: int) -> Optional[Placement]:
        """One placement attempt; the caller has already checked capacity."""
        try:
            return self.simulator.placement_algorithm.place(
                job.circuit,
                self.cloud,
                seed=seed,
                context=self.placement_context,
            )
        except (MappingError, CommunityError, PlacementError):
            return None

    def _record_result(
        self, result: TenantJobResult, time: Optional[float] = None
    ) -> None:
        """Sink one terminal result: retain it and/or fold it into telemetry.

        With ``keep_results=False`` the per-job result object is handed to
        the telemetry sink and then dropped, so a bounded-memory run never
        materializes the result list; the terminal job record is also
        released so the Job objects stay O(in-flight) instead of O(jobs).
        """
        self._results_recorded += 1
        if self.keep_results:
            self.results.append(result)
        if self.telemetry is not None:
            self.telemetry.record_result(
                result, tenant=self.tenants.get(result.job_id), time=time
            )
        if not self.keep_results:
            self.controller.jobs.pop(result.job_id, None)
            self.tenants.pop(result.job_id, None)
            self.progress.pop(result.job_id, None)
            self._job_capture_cache.pop(result.job_id, None)

    def _dropped_result(
        self, job: Job, outcome: JobOutcome, dropped_time: float
    ) -> TenantJobResult:
        progress = self.progress.get(job.job_id)
        wasted_time = 0.0
        wasted_ops = 0
        placement_time = math.nan
        if (
            outcome in (JobOutcome.PREEMPTED, JobOutcome.FAILED)
            and progress is not None
        ):
            # The job did run: report its first placement, and everything it
            # ever executed is lost work (including banked resume credit).
            if progress.first_placement_time is not None:
                placement_time = progress.first_placement_time
            wasted_time = progress.elapsed_local
            wasted_ops = progress.completed_ops
        return TenantJobResult(
            job_id=job.job_id,
            circuit_name=job.circuit.name,
            arrival_time=job.arrival_time,
            placement_time=placement_time,
            completion_time=math.nan,
            num_remote_operations=0,
            num_qpus_used=0,
            outcome=outcome,
            dropped_time=dropped_time,
            num_preemptions=job.num_preemptions,
            num_migrations=job.num_migrations,
            wasted_time=wasted_time,
            wasted_ops=wasted_ops,
        )

    def _result(self, state: _ActiveJob) -> TenantJobResult:
        assert state.completion_time is not None
        progress = self.progress.get(state.job.job_id)
        placement_time = state.start_time
        if progress is not None and progress.first_placement_time is not None:
            # Preempted/migrated along the way: queueing delay keeps
            # measuring the wait for the *first* placement.
            placement_time = progress.first_placement_time
        return TenantJobResult(
            job_id=state.job.job_id,
            circuit_name=state.job.circuit.name,
            arrival_time=state.job.arrival_time,
            placement_time=placement_time,
            completion_time=state.completion_time,
            num_remote_operations=state.remote_dag.num_operations,
            num_qpus_used=state.placement.num_qpus_used,
            num_preemptions=state.job.num_preemptions,
            num_migrations=state.job.num_migrations,
            epr_rounds=state.front.rounds,
        )

    # ------------------------------------------------------------------
    # Checkpoint capture (see repro.multitenant.checkpoint for the envelope)
    # ------------------------------------------------------------------
    def _fingerprint(self) -> Dict[str, Any]:
        """Run-configuration fingerprint compared field-by-field on resume."""
        sim = self.simulator
        template = sim.template_cloud
        faults = self.faults
        return {
            "network_scheduler": type(sim.network_scheduler).__name__,
            "placement_algorithm": type(sim.placement_algorithm).__name__,
            "batch_manager": getattr(
                sim.batch_manager, "name", type(sim.batch_manager).__name__
            ),
            "admission_policy": type(self.admission).__name__,
            "preemption_policy": type(self.preemption).__name__,
            "incremental_placement": bool(sim.incremental_placement),
            "max_events": sim.max_events,
            "seed": self._seed,
            "epr_success_probability": sim.epr_success_probability,
            "latency": repr(self.latency),
            "cloud": {
                "qpus": [
                    [qpu.qpu_id, qpu.computing_capacity, qpu.communication_capacity]
                    for qpu in template.qpus.values()
                ],
                "epr_success_probability": template.epr_success_probability,
            },
            "fault_injector": None
            if faults is None
            else {
                "on_failure": faults.on_failure,
                "num_events": len(faults.events),
            },
            "keep_results": bool(self.keep_results),
            "telemetry": self.telemetry is not None,
            "trace": self._trace_info,
        }

    def _restorable_circuit(self, name: str) -> QuantumCircuit:
        try:
            return cached_circuit(name)
        except Exception as exc:
            raise CheckpointError(
                f"circuit {name!r} is not in the circuit library; only "
                "library circuits (the ones traces reference) can be "
                "rebuilt on resume"
            ) from exc

    def _capture_job(self, job: Job) -> Dict[str, Any]:
        rebuilt = self._restorable_circuit(job.circuit.name)
        if (
            rebuilt.num_qubits != job.circuit.num_qubits
            or rebuilt.num_two_qubit_gates != job.circuit.num_two_qubit_gates
        ):
            raise CheckpointError(
                f"job {job.job_id}: circuit {job.circuit.name!r} does not "
                "match the library circuit of the same name, so it cannot "
                "be rebuilt on resume"
            )
        return {
            "job_id": job.job_id,
            "circuit": job.circuit.name,
            "arrival_time": job.arrival_time,
            "status": job.status.value,
            "placement": None
            if job.placement is None
            else [[qubit, qpu] for qubit, qpu in job.placement.items()],
            "start_time": job.start_time,
            "completion_time": job.completion_time,
            "num_preemptions": job.num_preemptions,
            "num_migrations": job.num_migrations,
            "last_preempted_time": job.last_preempted_time,
            "last_migrated_time": job.last_migrated_time,
        }

    def _capture_jobs(self) -> List[Dict[str, Any]]:
        """Capture the controller's job table, reusing frozen captures.

        A COMPLETED job never mutates again (nothing un-completes), so its
        captured form is cached; FAILED is *not* terminal here (a fleet
        failure may requeue the same Job object back to PENDING), and live
        jobs mutate freely, so both are re-captured every snapshot.
        """
        cache = self._job_capture_cache
        captured = []
        for job in self.controller.jobs.values():
            entry = cache.get(job.job_id)
            if entry is None:
                entry = self._capture_job(job)
                if job.status is JobStatus.COMPLETED:
                    cache[job.job_id] = entry
            captured.append(entry)
        return captured

    def _capture_results(self) -> List[Dict[str, Any]]:
        """Capture the retained result list, serializing only the tail.

        ``self.results`` is append-only and result objects are immutable
        once recorded, so each snapshot extends the cached capture with the
        results recorded since the previous one.
        """
        captured = self._captured_results
        for result in self.results[len(captured):]:
            captured.append(self._capture_result(result))
        return list(captured)

    @staticmethod
    def _capture_active(state: _ActiveJob) -> Dict[str, Any]:
        front = state.front
        return {
            "job_id": state.job.job_id,
            "mapping": [
                [qubit, qpu] for qubit, qpu in state.placement.mapping.items()
            ],
            "algorithm": state.placement.algorithm,
            "score": state.placement.score,
            "local_time": state.local_time,
            "start_time": state.start_time,
            "completion_time": state.completion_time,
            "in_flight_ops": state.in_flight_ops,
            "front": {
                "pending_predecessors": [
                    [node, count]
                    for node, count in front.pending_predecessors.items()
                ],
                "ready": sorted(front.ready),
                "completed": front.completed,
                "last_finish": front.last_finish,
                "rounds": front.rounds,
            },
        }

    @staticmethod
    def _capture_result(result: TenantJobResult) -> Dict[str, Any]:
        return {
            "job_id": result.job_id,
            "circuit_name": result.circuit_name,
            "arrival_time": result.arrival_time,
            "placement_time": result.placement_time,
            "completion_time": result.completion_time,
            "num_remote_operations": result.num_remote_operations,
            "num_qpus_used": result.num_qpus_used,
            "outcome": result.outcome.value,
            "dropped_time": result.dropped_time,
            "num_preemptions": result.num_preemptions,
            "num_migrations": result.num_migrations,
            "wasted_time": result.wasted_time,
            "wasted_ops": result.wasted_ops,
            "epr_rounds": result.epr_rounds,
        }

    def _capture_cloud(self) -> Dict[str, Any]:
        return {
            "version_base": self.cloud._version_base,
            "qpus": [
                {
                    "qpu_id": qpu.qpu_id,
                    "computing_capacity": qpu.computing_capacity,
                    "communication_capacity": qpu.communication_capacity,
                    "epr_success_probability": qpu.epr_success_probability,
                    "computing_used": [
                        [job_id, amount]
                        for job_id, amount in qpu._computing_used.items()
                    ],
                    "computing_version": qpu._computing_version,
                }
                for qpu in self.cloud.qpus.values()
            ],
        }

    def _capture_cursor(self) -> Optional[Dict[str, Any]]:
        if self._trace_cursor is None:
            return None
        cursor = self._trace_cursor
        return {
            "offset": cursor.tell(),
            "index": cursor.index,
            "line_no": cursor.line_no,
            "previous": cursor.previous_arrival,
        }

    def _capture_state(self) -> Dict[str, Any]:
        """Everything :meth:`_restore_state` needs, as plain json values.

        Dicts with non-string keys are stored as ``[[key, value], ...]``
        pair lists (json would coerce the keys to strings); iteration
        orders are preserved so every restored dict iterates exactly like
        the original.  The :class:`~repro.placement.PlacementContext` is
        deliberately *not* captured: its caches are exact, so a cold
        recompute yields bit-identical placements.
        """
        checkpoint = self._checkpoint
        return {
            "seed": self._seed,
            "keep_results": self.keep_results,
            "checkpoint": None
            if checkpoint is None
            else {
                "path": checkpoint.path,
                "every_jobs": checkpoint.every_jobs,
            },
            "trace": self._trace_info,
            "engine": self.loop.snapshot_state(),
            "rng": self.rng.bit_generator.state,
            "job_counter": job_counter_state(),
            "cloud": self._capture_cloud(),
            "jobs": self._capture_jobs(),
            "pending": [job.job_id for job in self.pending],
            "active": [
                self._capture_active(state) for state in self.active.values()
            ],
            "progress": [
                [
                    job_id,
                    {
                        "completed_ops": prog.completed_ops,
                        "elapsed_local": prog.elapsed_local,
                        "first_placement_time": prog.first_placement_time,
                    },
                ]
                for job_id, prog in self.progress.items()
            ],
            "tenants": [
                [job_id, tenant] for job_id, tenant in self.tenants.items()
            ],
            "failure_signatures": [
                [job_id, list(signature)]
                for job_id, signature in self.failure_signatures.items()
            ],
            "admission": self.admission.checkpoint_state(),
            "preemption": self.preemption.checkpoint_state(),
            "departed_capacities": [
                [qpu_id, list(capacities)]
                for qpu_id, capacities in self._departed_capacities.items()
            ],
            "calibration_restore": [
                [qpu_id, value]
                for qpu_id, value in self._calibration_restore.items()
            ],
            "counters": {
                "stream_exhausted": self._stream_exhausted,
                "stream_index": self._stream_index,
                "last_stream_arrival": self._last_stream_arrival,
                "resources_changed": self.resources_changed,
                "round_end_time": self.round_end_time,
                "results_recorded": self._results_recorded,
            },
            "results": self._capture_results(),
            "telemetry": None
            if self.telemetry is None
            else self.telemetry.checkpoint_state(),
            "pending_record": self._pending_record,
            "cursor": self._capture_cursor(),
        }

    def _write_snapshot(self) -> int:
        return write_snapshot(
            self._checkpoint.path, self._fingerprint(), self._capture_state()
        )

    # ------------------------------------------------------------------
    # Checkpoint restore
    # ------------------------------------------------------------------
    def _resolve_event_label(self, label: str):
        """Re-bind a snapshotted event label to its callback (restore)."""
        if label == "tick":
            return self._tick
        if label == "epr-round":
            return self._on_round_end
        if label.startswith("arrive:trace["):
            return self._cursor_callback()
        if label.startswith("expire:"):
            return self._expiry_callback(
                self.controller.jobs[label[len("expire:"):]]
            )
        if label.startswith("preempt-check:"):
            return self._rescue_check_callback(label[len("preempt-check:"):])
        if label.startswith("calibration-end:"):
            return self._calibration_end_callback(int(label.rsplit(":", 1)[1]))
        if label.startswith("fleet:"):
            index = int(label.split(":", 2)[1])
            return self._fleet_callback(self.faults.events[index])
        raise CheckpointError(
            f"cannot re-bind a callback for event label {label!r}"
        )

    def _restore_job(self, saved: Dict[str, Any]) -> Job:
        return Job(
            circuit=self._restorable_circuit(saved["circuit"]),
            job_id=saved["job_id"],
            arrival_time=float(saved["arrival_time"]),
            status=JobStatus(saved["status"]),
            placement=None
            if saved["placement"] is None
            else {int(qubit): int(qpu) for qubit, qpu in saved["placement"]},
            start_time=None
            if saved["start_time"] is None
            else float(saved["start_time"]),
            completion_time=None
            if saved["completion_time"] is None
            else float(saved["completion_time"]),
            num_preemptions=int(saved["num_preemptions"]),
            num_migrations=int(saved["num_migrations"]),
            last_preempted_time=None
            if saved["last_preempted_time"] is None
            else float(saved["last_preempted_time"]),
            last_migrated_time=None
            if saved["last_migrated_time"] is None
            else float(saved["last_migrated_time"]),
        )

    def _restore_active(self, saved: Dict[str, Any]) -> _ActiveJob:
        job = self.controller.jobs[saved["job_id"]]
        placement = Placement(
            circuit=job.circuit,
            mapping={int(qubit): int(qpu) for qubit, qpu in saved["mapping"]},
            algorithm=saved["algorithm"],
            score=float(saved["score"]),
        )
        state = _ActiveJob(
            job=job,
            placement=placement,
            remote_dag=RemoteDAG(job.circuit, placement.mapping),
            local_time=float(saved["local_time"]),
            start_time=float(saved["start_time"]),
        )
        state.completion_time = (
            None
            if saved["completion_time"] is None
            else float(saved["completion_time"])
        )
        state.in_flight_ops = int(saved["in_flight_ops"])
        front = state.front
        # __post_init__ rebuilt the front from the (identical) DAG; only the
        # progress counters need the snapshot's values.  update() keeps the
        # deterministic rebuild order of pending_predecessors.
        front.pending_predecessors.update(
            {int(node): int(count) for node, count in saved["front"]["pending_predecessors"]}
        )
        front.ready = {int(node) for node in saved["front"]["ready"]}
        front.completed = int(saved["front"]["completed"])
        front.last_finish = float(saved["front"]["last_finish"])
        front.rounds = int(saved["front"]["rounds"])
        return state

    def _restore_cloud(self, saved: Dict[str, Any]) -> None:
        """Rebuild fleet membership and allocations in the captured order.

        Mutates the existing cloud object in place: the controller and the
        EPR model hold references to it (the EPR model's per-QPU probability
        hook is a bound method of this exact instance).
        """
        qpus: Dict[int, QPU] = {}
        for entry in saved["qpus"]:
            qpu = QPU(
                qpu_id=int(entry["qpu_id"]),
                computing_capacity=int(entry["computing_capacity"]),
                communication_capacity=int(entry["communication_capacity"]),
                epr_success_probability=None
                if entry["epr_success_probability"] is None
                else float(entry["epr_success_probability"]),
            )
            qpu._computing_used = {
                job_id: int(amount)
                for job_id, amount in entry["computing_used"]
            }
            qpu._computing_version = int(entry["computing_version"])
            qpus[qpu.qpu_id] = qpu
        self.cloud.qpus = qpus
        self.cloud._version_base = int(saved["version_base"])
        self.cloud._resource_graph_cache = None
        self.cloud._available_cache = None
        self._refresh_fleet()

    def _restore_state(self, state: Dict[str, Any], telemetry) -> None:
        """Adopt a full snapshot into this freshly constructed batch."""
        set_job_counter(int(state["job_counter"]))
        self.rng.bit_generator.state = state["rng"]
        self._restore_cloud(state["cloud"])
        self.controller.jobs.clear()
        for saved in state["jobs"]:
            job = self._restore_job(saved)
            self.controller.jobs[job.job_id] = job
        jobs = self.controller.jobs
        self.pending = [jobs[job_id] for job_id in state["pending"]]
        self._recompute_min_pending()
        self.progress = {
            job_id: JobProgress(
                completed_ops=int(prog["completed_ops"]),
                elapsed_local=float(prog["elapsed_local"]),
                first_placement_time=None
                if prog["first_placement_time"] is None
                else float(prog["first_placement_time"]),
            )
            for job_id, prog in state["progress"]
        }
        self.tenants = {job_id: tenant for job_id, tenant in state["tenants"]}
        self.failure_signatures = {
            job_id: (int(signature[0]), int(signature[1]))
            for job_id, signature in state["failure_signatures"]
        }
        self.active = {
            saved["job_id"]: self._restore_active(saved)
            for saved in state["active"]
        }
        self.admission.restore_state(state["admission"])
        self.preemption.restore_state(state["preemption"])
        self._departed_capacities = {
            int(qpu_id): (int(capacities[0]), int(capacities[1]))
            for qpu_id, capacities in state["departed_capacities"]
        }
        self._calibration_restore = {
            int(qpu_id): None if value is None else float(value)
            for qpu_id, value in state["calibration_restore"]
        }
        counters = state["counters"]
        self._stream_exhausted = bool(counters["stream_exhausted"])
        self._stream_index = int(counters["stream_index"])
        self._last_stream_arrival = (
            None
            if counters["last_stream_arrival"] is None
            else float(counters["last_stream_arrival"])
        )
        self.resources_changed = bool(counters["resources_changed"])
        self.round_end_time = (
            None
            if counters["round_end_time"] is None
            else float(counters["round_end_time"])
        )
        self._results_recorded = int(counters["results_recorded"])
        self.results = [
            TenantJobResult(
                job_id=saved["job_id"],
                circuit_name=saved["circuit_name"],
                arrival_time=float(saved["arrival_time"]),
                placement_time=float(saved["placement_time"]),
                completion_time=float(saved["completion_time"]),
                num_remote_operations=int(saved["num_remote_operations"]),
                num_qpus_used=int(saved["num_qpus_used"]),
                outcome=JobOutcome(saved["outcome"]),
                dropped_time=None
                if saved["dropped_time"] is None
                else float(saved["dropped_time"]),
                num_preemptions=int(saved["num_preemptions"]),
                num_migrations=int(saved["num_migrations"]),
                wasted_time=float(saved["wasted_time"]),
                wasted_ops=int(saved["wasted_ops"]),
                epr_rounds=int(saved["epr_rounds"]),
            )
            for saved in state["results"]
        ]
        if state["telemetry"] is not None:
            if telemetry is None:
                raise CheckpointError(
                    "the snapshot carries telemetry state; pass a fresh "
                    "Telemetry sink to resume_stream"
                )
            telemetry.restore_state(state["telemetry"])
            self.telemetry = telemetry
        self._pending_record = state["pending_record"]
        if state["cursor"] is not None:
            cursor = TraceReader(state["trace"]["path"]).cursor()
            saved_cursor = state["cursor"]
            cursor.seek(
                int(saved_cursor["offset"]),
                index=int(saved_cursor["index"]),
                line_no=saved_cursor["line_no"],
                previous=saved_cursor["previous"],
            )
            self._arrivals = _record_arrivals(
                cursor, self.simulator.template_cloud.total_computing_capacity()
            )
            self._trace_cursor = cursor
        # The engine comes last: the resolver needs the restored jobs and
        # pending record to re-bind callbacks.
        handles = self.loop.restore_state(
            state["engine"], self._resolve_event_label
        )
        self.expiry_handles = {}
        self.tick_handle = None
        for (_, _, _, label), handle in zip(
            state["engine"]["events"], handles
        ):
            if label == "tick":
                self.tick_handle = handle
            elif label.startswith("expire:"):
                self.expiry_handles[label[len("expire:"):]] = handle

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        """Step the event queue dry, snapshotting between events if configured.

        Events run one at a time, so snapshots (and the SIGTERM/SIGINT final
        snapshot) land at safe points *between* events; with
        ``checkpoint=None`` no snapshot is taken and no signal handler is
        installed.  The max-events budget counts ``processed_events``, which
        survives a resume, so a resumed run has exactly the budget the
        uninterrupted run had.
        """
        max_events = self.simulator.max_events
        config = self._checkpoint
        handlers: Dict[int, Any] = {}
        if config is not None:
            self._signal_flag = None

            def on_signal(signum: int, frame: object) -> None:
                self._signal_flag = signum

            try:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    handlers[signum] = signal.signal(signum, on_signal)
            except ValueError:  # pragma: no cover - non-main thread
                for signum, previous in handlers.items():
                    signal.signal(signum, previous)
                handlers = {}
        results_at_snapshot = self._results_recorded
        # The loop body runs once per engine event, so attribute lookups
        # are hoisted into locals -- at millions of events per replay the
        # per-iteration Python overhead is the bulk of the checkpointing
        # cost (the snapshots themselves amortize to ~nothing).
        loop = self.loop
        step = loop.step
        peek = loop.peek
        every_jobs = None if config is None else config.every_jobs
        try:
            while True:
                if self._signal_flag is not None:
                    signum = self._signal_flag
                    self._write_snapshot()
                    if signum == signal.SIGINT:
                        raise KeyboardInterrupt
                    raise SystemExit(128 + signum)
                if peek() is None:
                    break
                if (
                    max_events is not None
                    and loop.processed_events >= max_events
                ):
                    raise ClusterSimulationError(
                        f"simulation exceeded {max_events} events"
                    )
                step()
                if every_jobs is not None:
                    if (
                        self._results_recorded - results_at_snapshot
                        >= every_jobs
                    ):
                        self._write_snapshot()
                        results_at_snapshot = self._results_recorded
        finally:
            for signum, previous in handlers.items():
                signal.signal(signum, previous)

    def execute(self) -> List[TenantJobResult]:
        try:
            if (
                self._pending_record is None
                and self._arrivals is not None
                and not self._stream_exhausted
            ):
                # Start the cursor; a restored run already has one pending.
                self._schedule_next_arrival()
            self._run_loop()
        finally:
            if self._trace_cursor is not None:
                self._trace_cursor.close()
        if self.pending:
            if any(job.num_preemptions == 0 for job in self.pending):
                raise ClusterSimulationError(
                    "pending jobs can never be placed: insufficient resources"
                )
            # Every stranded job was evicted by the preemption policy and
            # never found a new placement: that is a recorded scheduling
            # outcome ("preempted"), not a simulator failure.
            for job in self.pending:
                self.controller.drop(job)
                # Stranded jobs leave the pending queue when the run drains,
                # so that is the instant the telemetry depth tracker records.
                self._record_result(
                    self._dropped_result(
                        job, JobOutcome.PREEMPTED, job.last_preempted_time
                    ),
                    time=self.loop.now,
                )
            self.pending = []
        if self.active:  # pragma: no cover - defensive; the loop never drains
            raise ClusterSimulationError(
                "event queue drained with unfinished active jobs"
            )
        # Length-then-lexicographic sorts the default "job-<n>" ids numerically,
        # so the result order does not depend on the process-global job counter
        # crossing a power of ten.
        return sorted(
            self.results, key=lambda result: (len(result.job_id), result.job_id)
        )


class MultiTenantSimulator:
    """Simulates a multi-tenant quantum cloud serving a batch of circuits."""

    def __init__(
        self,
        cloud: QuantumCloud,
        placement_algorithm: PlacementAlgorithm,
        network_scheduler: NetworkScheduler,
        batch_manager: Optional[BatchManager] = None,
        latency: LatencyModel = DEFAULT_LATENCY,
        epr_success_probability: Optional[float] = None,
        max_events: int = 5_000_000,
        admission_policy: Optional[AdmissionPolicy] = None,
        incremental_placement: bool = True,
        preemption_policy: Optional[PreemptionPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.template_cloud = cloud
        self.placement_algorithm = placement_algorithm
        self.network_scheduler = network_scheduler
        self.batch_manager = batch_manager or priority_batch_manager()
        self.admission_policy = admission_policy or AdmitAll()
        # Preemption/migration of placed jobs (see repro.multitenant.
        # preemption): the default NeverPreempt keeps placements irrevocable
        # and bit-identical to the pre-preemption simulator.  A resumed job
        # keeps its banked EPR successes and local execution time.
        self.preemption_policy = preemption_policy or NeverPreempt()
        # Fleet dynamics (see repro.multitenant.faults): an optional
        # FaultInjector schedules QPU joins/drains/failures and calibration
        # windows into every run.  fault_injector=None (the default) keeps
        # runs bit-identical to the static-fleet simulator.  Chaos runs
        # should pair the injector with a queueing-deadline admission
        # policy: a job whose capacity never comes back then expires instead
        # of stalling the run.
        self.fault_injector = fault_injector
        # The placement fast path: memoize placement inputs across attempts
        # and skip re-attempts whose failure signature is unchanged.  Off, the
        # simulator recomputes every attempt from scratch (the pre-fast-path
        # behavior).  The context caches are exact, and so is the skip for
        # CloudQC, CloudQC-BFS and Random placement, whose outcome at an
        # unchanged availability map does not depend on the seed (see
        # docs/architecture.md, "Placement fast path").
        self.incremental_placement = incremental_placement
        self.latency = latency
        self.epr_success_probability = (
            cloud.epr_success_probability
            if epr_success_probability is None
            else epr_success_probability
        )
        self.max_events = max_events

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        seed: Optional[int] = None,
        arrival_times: Optional[Sequence[float]] = None,
        telemetry=None,
        keep_results: bool = True,
        tenants: Optional[Sequence] = None,
    ) -> List[TenantJobResult]:
        """Run a batch of circuits to completion and return per-job results.

        ``arrival_times`` defaults to 0 for every circuit (batch mode); passing
        per-circuit arrival times models the incoming-job mode, where every
        arrival event triggers a placement attempt at its exact arrival time.
        The times need not be sorted: jobs take ids in list order, enter
        through the pending-arrival cursor that replays recorded traces, and
        equal-time arrivals keep list order.

        ``telemetry`` attaches a streaming
        :class:`~repro.multitenant.Telemetry` sink fed at every
        job-lifecycle transition; the sink is purely observational, so
        seeded results are bit-identical with or without it.  With
        ``keep_results=False`` (requires a sink -- the data would
        otherwise be lost) the per-job result list is never materialized:
        the run returns ``[]`` and the sink holds the bounded-memory
        aggregates.  ``tenants`` optionally pairs one tenant id per
        circuit for the sink's per-tenant accounting and event stream.

        Checkpointing needs a recorded trace: write the circuits with
        :func:`~repro.multitenant.write_trace` and replay the file with
        :meth:`run_stream`.
        """
        if telemetry is None and not keep_results:
            raise ValueError(
                "keep_results=False requires a telemetry sink; the run "
                "would otherwise produce nothing"
            )
        # Validate *all* pairings before the empty-batch early return: an
        # empty circuit list with non-empty arrival_times/tenants used to
        # slip through and silently return [], hiding a caller-side bug.
        if tenants is not None and len(tenants) != len(circuits):
            raise ValueError("tenants must match the number of circuits")
        if arrival_times is None:
            arrival_times = [0.0] * len(circuits)
        else:
            arrival_times = [_arrival_float(time) for time in arrival_times]
        if len(arrival_times) != len(circuits):
            raise ValueError("arrival_times must match the number of circuits")
        for index, time in enumerate(arrival_times):
            if not math.isfinite(time):
                raise ValueError(f"arrival time #{index} is not finite: {time!r}")
        if any(time < 0 for time in arrival_times):
            raise ValueError("arrival times cannot be negative")
        if not circuits:
            return []

        total_capacity = self.template_cloud.total_computing_capacity()
        for circuit in circuits:
            if circuit.num_qubits > total_capacity:
                raise ClusterSimulationError(
                    f"circuit {circuit.name} needs {circuit.num_qubits} qubits but "
                    f"the cloud only has {total_capacity}"
                )

        return _EventDrivenBatch.from_circuits(
            self,
            circuits,
            arrival_times,
            seed,
            tenants=tenants,
            telemetry=telemetry,
            keep_results=keep_results,
        ).execute()

    def run_stream(
        self,
        circuits: Optional[Sequence[QuantumCircuit]] = None,
        arrival_times: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
        telemetry=None,
        keep_results: bool = True,
        tenants: Optional[Sequence] = None,
        trace: Optional[
            Union[str, os.PathLike, TraceReader, Iterable[TraceRecord]]
        ] = None,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> List[TenantJobResult]:
        """Incoming-job mode: circuits arriving over time (Sec. V-B).

        ``arrival_times`` pairs one arrival per circuit -- typically generated
        by :func:`~repro.multitenant.arrivals.poisson_arrivals`,
        :func:`~repro.multitenant.arrivals.uniform_arrivals`,
        :func:`~repro.multitenant.arrivals.bursty_arrivals` or replayed from a
        recorded trace via
        :func:`~repro.multitenant.arrivals.trace_arrivals`.  Arrivals flow
        through the same event path as batch mode (see :meth:`run_batch`);
        batch mode is simply the special case where every arrival is at t=0.

        ``trace=`` replays a *recorded trace* instead (mutually exclusive
        with ``circuits``/``arrival_times``/``tenants``): a path to an
        on-disk jsonl trace (see :mod:`repro.multitenant.trace`), a
        :class:`~repro.multitenant.TraceReader`, a
        :class:`~repro.multitenant.ClusterTrace`, or any iterable of
        :class:`~repro.multitenant.TraceRecord`.  Records are consumed
        **lazily** through the pending-arrival cursor -- each job is minted
        at its arrival instant and each record's ``tenant`` feeds the
        telemetry sink -- so with ``keep_results=False`` a million-job
        on-disk trace replays with peak memory independent of the job count.
        A path trace is read through a :class:`~repro.multitenant.
        TraceCursor`, closed when the run returns or raises.  Replaying a
        trace is bit-identical to passing the same workload as circuits and
        arrival times under a fixed seed (pinned by golden A/B tests).

        Every arrival passes through the simulator's admission policy first
        (:class:`~repro.multitenant.AdmitAll` by default); dropped jobs come
        back with ``outcome`` set to ``"rejected"`` or ``"expired"`` and NaN
        placement/completion times, so the result list always has one entry
        per submitted circuit.

        For bounded-memory replays, pass a
        :class:`~repro.multitenant.Telemetry` sink (``telemetry=``) and
        ``keep_results=False``: the run then emits streaming summaries --
        sketch percentiles, counters, the maximum queue depth and an
        optional jsonl event stream -- without retaining per-job
        ``TenantJobResult`` lists (see ``docs/architecture.md``,
        "Telemetry & observability").

        ``checkpoint=CheckpointConfig(path=..., every_jobs=...)`` arms
        crash-safe snapshotting: the run periodically writes an atomic
        snapshot of everything needed to resume (engine queue, RNG streams,
        controller and policy state, telemetry sketches, trace cursor), and
        a SIGTERM/SIGINT triggers one final snapshot before exiting.
        :meth:`resume_stream` continues from the latest snapshot
        bit-identically to the uninterrupted run.  Checkpointing needs a
        *path* trace (the resumable byte cursor re-opens the file): in-memory
        circuits and reader/iterable traces raise :class:`CheckpointError`;
        write them with :func:`~repro.multitenant.write_trace` first.
        """
        if checkpoint is not None:
            # Checked before the trace is opened, so a refused run opens
            # no file.
            if not isinstance(trace, (str, os.PathLike)):
                raise CheckpointError(
                    "a checkpointed run needs a path trace=; in-memory circuits "
                    "and reader/iterable sources cannot be re-opened on resume "
                    "(write them with write_trace and replay the file)"
                )
            if (
                telemetry is not None
                and telemetry._stream is not None
                and telemetry._events_path is None
            ):
                raise CheckpointError(
                    "checkpointed runs need the telemetry event stream to be "
                    "a path (events='events.jsonl') or disabled; a caller-"
                    "owned file object cannot be re-opened on resume"
                )
        if trace is None:
            if circuits is None or arrival_times is None:
                raise ValueError(
                    "run_stream requires circuits and explicit arrival times "
                    "(or a recorded trace via trace=)"
                )
            return self.run_batch(
                circuits,
                seed=seed,
                arrival_times=list(arrival_times),
                telemetry=telemetry,
                keep_results=keep_results,
                tenants=tenants,
            )
        if circuits is not None or arrival_times is not None:
            raise ValueError(
                "trace= is mutually exclusive with circuits/arrival_times"
            )
        if tenants is not None:
            raise ValueError(
                "trace= carries per-record tenants; tenants= is only for "
                "the circuits/arrival_times form"
            )
        if telemetry is None and not keep_results:
            raise ValueError(
                "keep_results=False requires a telemetry sink; the run "
                "would otherwise produce nothing"
            )
        cursor = trace_info = None
        if isinstance(trace, (str, os.PathLike)):
            # A byte-addressable cursor, so a snapshot can record an exact
            # resume offset.
            records = cursor = TraceReader(trace).cursor()
            trace_info = {"path": os.fspath(trace)}
        else:
            # A ClusterTrace or any record iterable.
            iter_records = getattr(trace, "iter_records", None)
            records = iter_records() if callable(iter_records) else trace
        return _EventDrivenBatch(
            self,
            _record_arrivals(
                records, self.template_cloud.total_computing_capacity()
            ),
            seed,
            telemetry=telemetry,
            keep_results=keep_results,
            checkpoint=checkpoint,
            trace_info=trace_info,
            trace_cursor=cursor,
        ).execute()

    def resume_stream(
        self,
        path: Union[str, os.PathLike],
        telemetry=None,
        checkpoint: Any = _INHERIT_CHECKPOINT,
    ) -> List[TenantJobResult]:
        """Resume a checkpointed run from a snapshot, bit-identically.

        The caller reconstructs the simulator exactly as for the original
        run (same cloud, scheduler, policies, ...); the snapshot's
        configuration fingerprint is compared field-by-field and the resume
        is refused with :class:`~repro.multitenant.CheckpointMismatchError`
        naming the first differing field.  The returned results, final
        metrics, and telemetry byte stream are bit-identical to the
        uninterrupted run (pinned by property tests across all schedulers
        with preemption and fault injection active).

        ``telemetry`` must be a *fresh* sink iff the original run had one
        (constructed with the same ``epsilon`` and
        **without** ``events=`` -- the snapshot rewires the event stream to
        the original path, truncating any torn tail).  ``checkpoint``
        defaults to inheriting the snapshotted cadence, so a resumed run
        keeps checkpointing to the same file; pass ``None`` to disable
        further snapshots or a new :class:`CheckpointConfig` to change them.
        """
        envelope = read_snapshot(os.fspath(path))
        state = envelope["state"]
        if checkpoint is _INHERIT_CHECKPOINT:
            saved = state.get("checkpoint")
            checkpoint = (
                None
                if saved is None
                else CheckpointConfig(
                    path=saved["path"], every_jobs=saved["every_jobs"]
                )
            )
        batch = _EventDrivenBatch(
            self,
            None,
            state["seed"],
            telemetry=None,
            keep_results=bool(state["keep_results"]),
            checkpoint=checkpoint,
            trace_info=state["trace"],
            restoring=True,
        )
        # The fingerprint's has-telemetry flag must reflect the resume call.
        batch.telemetry = telemetry
        check_fingerprint(envelope["fingerprint"], batch._fingerprint())
        batch.telemetry = None
        batch._restore_state(state, telemetry)
        return batch.execute()
