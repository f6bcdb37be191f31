"""Fleet dynamics and fault injection: joins, drains, failures, calibration.

The paper's evaluation assumes a static cloud; production fleets churn.  This
module makes the churn schedulable: a :class:`FaultInjector` carries a
time-sorted list of :class:`FleetEvent`\\ s -- either a *recorded schedule*
(hand-written events, e.g. a scripted storm for a benchmark) or one generated
from a seedable :class:`ChaosSpec`.

The injector itself is pure data: the event semantics (migrating jobs off a
draining QPU, losing in-flight EPR work on an abrupt failure, degrading a
per-QPU EPR probability during calibration) live in
:mod:`repro.multitenant.cluster_sim`, which interleaves fleet events ahead of
same-instant arrivals and ticks (``FLEET_TIER``).  Schedule generation draws
from its *own* RNG before the run starts, so attaching an injector never
perturbs the simulator's RNG stream -- and a run with no injector is
bit-identical to one without the fault layer compiled in at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Event tier for fleet events: at equal timestamps a fleet change runs
#: before same-instant arrivals (tier -1) and ticks/expiries (tier 0), so a
#: job arriving the instant a QPU fails already sees the shrunken fleet.
FLEET_TIER = -2

#: How a ``QPUFail`` disposes of the jobs it interrupts.
FAILURE_MODES = ("requeue", "drop")


# ----------------------------------------------------------------------
# Schedulable fleet events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetEvent:
    """Base class: something happens to one QPU at an absolute sim time."""

    time: float
    qpu_id: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fleet events cannot be scheduled in the past")


@dataclass(frozen=True)
class QPUJoin(FleetEvent):
    """A QPU comes online (a capacity join or a recovery after fail/drain).

    Capacities may be omitted for a QPU that left the fleet earlier in the
    run -- it rejoins with its remembered capacities.  A QPU id never seen
    before must spell them out.
    """

    computing_capacity: Optional[int] = None
    communication_capacity: Optional[int] = None


@dataclass(frozen=True)
class QPUFail(FleetEvent):
    """Abrupt mid-round failure: jobs on the QPU lose their in-flight EPR
    work and are requeued or dropped per the injector's ``on_failure``
    mode."""


@dataclass(frozen=True)
class QPUDrain(FleetEvent):
    """Graceful decommission: jobs are live-migrated off via
    ``Controller.migrate`` where a placement exists, preempted-and-requeued
    otherwise, then the QPU leaves the fleet."""


@dataclass(frozen=True)
class CalibrationWindow(FleetEvent):
    """The QPU recalibrates for ``duration``: its per-QPU EPR success
    probability drops to ``epr_success_probability``, degrading every link
    it serves, and is restored when the window closes."""

    duration: float = 0.0
    epr_success_probability: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise ValueError("calibration windows need a positive duration")
        if not 0.0 < self.epr_success_probability <= 1.0:
            raise ValueError("EPR success probability must lie in (0, 1]")


# ----------------------------------------------------------------------
# Seedable scenario generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSpec:
    """Rates for a random fleet-churn scenario over ``duration`` sim time.

    Each QPU runs an independent renewal process: incidents arrive with
    exponential gaps at rate ``failure_rate + drain_rate + calibration_rate``
    and the incident kind is drawn proportionally to the rates.  Failures
    and drains take the QPU offline for an exponential outage
    (``mean_repair_time`` / ``mean_drain_downtime``) ending in a
    :class:`QPUJoin`; calibration degrades EPR generation for an exponential
    ``mean_calibration_duration`` without leaving the fleet.  Outages never
    overlap on the same QPU by construction.
    """

    duration: float
    failure_rate: float = 0.0
    drain_rate: float = 0.0
    calibration_rate: float = 0.0
    mean_repair_time: float = 50.0
    mean_drain_downtime: float = 50.0
    mean_calibration_duration: float = 25.0
    calibration_epr_probability: float = 0.05

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("scenario duration must be positive")
        if min(self.failure_rate, self.drain_rate, self.calibration_rate) < 0:
            raise ValueError("incident rates cannot be negative")
        if (
            min(
                self.mean_repair_time,
                self.mean_drain_downtime,
                self.mean_calibration_duration,
            )
            <= 0
        ):
            raise ValueError("outage/window durations must be positive")
        if not 0.0 < self.calibration_epr_probability <= 1.0:
            raise ValueError("EPR success probability must lie in (0, 1]")


def generate_fleet_events(
    spec: ChaosSpec,
    qpu_ids: Sequence[int],
    seed: Optional[int] = None,
) -> List[FleetEvent]:
    """Sample a fleet-event schedule from ``spec`` (deterministic per seed).

    The generator owns its RNG: a schedule is fully materialised before a
    run starts, so injecting it never consumes simulator randomness.
    """
    rng = np.random.default_rng(seed)
    total_rate = spec.failure_rate + spec.drain_rate + spec.calibration_rate
    events: List[FleetEvent] = []
    if total_rate <= 0:
        return events
    # detlint: ignore[DET003] QPU ids are distinct ints; sorted() output is canonical regardless of set order
    for qpu_id in sorted(set(qpu_ids)):
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / total_rate))
            if t >= spec.duration:
                break
            draw = rng.random() * total_rate
            if draw < spec.failure_rate:
                outage = float(rng.exponential(spec.mean_repair_time))
                events.append(QPUFail(time=t, qpu_id=qpu_id))
                events.append(QPUJoin(time=t + outage, qpu_id=qpu_id))
                t += outage
            elif draw < spec.failure_rate + spec.drain_rate:
                outage = float(rng.exponential(spec.mean_drain_downtime))
                events.append(QPUDrain(time=t, qpu_id=qpu_id))
                events.append(QPUJoin(time=t + outage, qpu_id=qpu_id))
                t += outage
            else:
                window = float(rng.exponential(spec.mean_calibration_duration))
                events.append(
                    CalibrationWindow(
                        time=t,
                        qpu_id=qpu_id,
                        duration=window,
                        epr_success_probability=spec.calibration_epr_probability,
                    )
                )
                t += window
    events.sort(key=lambda event: event.time)
    return events


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """A fleet-dynamics plan: a time-sorted schedule of fleet events.

    Attach one to :class:`~repro.multitenant.MultiTenantSimulator` via
    ``fault_injector=``; the simulator schedules every event at
    :data:`FLEET_TIER`.

    Parameters
    ----------
    events:
        A recorded schedule (any iterable of :class:`FleetEvent`; kept in
        stable time order).
    on_failure:
        ``"requeue"`` (default) sends jobs interrupted by a :class:`QPUFail`
        back to the pending queue keeping their banked work; ``"drop"``
        removes them terminally with outcome ``failed``.
    """

    def __init__(
        self,
        events: Iterable[FleetEvent] = (),
        on_failure: str = "requeue",
    ) -> None:
        if on_failure not in FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {FAILURE_MODES}, got {on_failure!r}"
            )
        schedule = list(events)
        for event in schedule:
            if not isinstance(event, FleetEvent):
                raise TypeError(f"not a FleetEvent: {event!r}")
        schedule.sort(key=lambda event: event.time)
        self.events: Tuple[FleetEvent, ...] = tuple(schedule)
        self.on_failure = on_failure

    @classmethod
    def from_spec(
        cls,
        spec: ChaosSpec,
        qpu_ids: Sequence[int],
        seed: Optional[int] = None,
        on_failure: str = "requeue",
    ) -> "FaultInjector":
        """Materialise a seedable chaos scenario into an injector."""
        return cls(
            events=generate_fleet_events(spec, qpu_ids, seed=seed),
            on_failure=on_failure,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(events={len(self.events)}, "
            f"on_failure={self.on_failure!r})"
        )
