"""A small heap-based discrete-event simulation engine.

The multi-tenant cluster simulator (:mod:`repro.multitenant.cluster_sim`) runs
entirely on this loop: job arrivals, placement passes, EPR rounds and job
completions are timestamped events, so idle gaps are skipped in O(log n)
instead of being stepped through round by round.  The engine is deliberately
minimal (no processes or coroutines): events are callbacks executed in
timestamp order, ties broken by insertion order so runs are deterministic.
Events can be cancelled (:meth:`EventHandle.cancel`) or moved
(:meth:`EventLoop.reschedule`).  The loop has no run method: its one driver
is the simulator's run loop, which calls :meth:`EventLoop.step` once per
event and enforces the simulator's ``max_events`` guard itself.

The full engine contract and how the multi-tenant simulation flow
(arrival -> admission -> placement pass -> EPR rounds -> completion) is built
on it are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the event loop is used inconsistently."""


@dataclass(eq=False, slots=True)
class _QueuedEvent:
    """One scheduled callback.

    The heap holds ``(time, tier, sequence, event)`` tuples; sequence numbers
    are unique, so tuple comparison never reaches the event itself.
    """

    time: float
    tier: int
    sequence: int
    callback: Callable[["EventLoop"], None]
    label: str = ""
    cancelled: bool = False
    executed: bool = False


class EventHandle:
    """Handle returned by :meth:`EventLoop.schedule`, usable for cancellation."""

    def __init__(self, event: _QueuedEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def label(self) -> str:
        return self._event.label

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def executed(self) -> bool:
        return self._event.executed


class EventLoop:
    """Deterministic discrete-event loop."""

    _CHECKPOINT_EXCLUDE = {
        "_queue": "heap entries hold closures; snapshot_state serializes them as the 'events' descriptor list and restore_state re-registers callbacks",
    }

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, _QueuedEvent]] = []
        self._next_sequence = 0
        self._now = 0.0
        self.processed_events = 0

    def _push(
        self,
        time: float,
        tier: int,
        callback: Callable[["EventLoop"], None],
        label: str,
    ) -> EventHandle:
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = _QueuedEvent(time, tier, sequence, callback, label)
        heapq.heappush(self._queue, (time, tier, sequence, event))
        return EventHandle(event)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[["EventLoop"], None],
        label: str = "",
        tier: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now.

        ``tier`` refines the same-timestamp tiebreak: events at equal time run
        in ascending tier, and by insertion order within a tier.  The default
        tier 0 preserves plain insertion-order semantics; a caller that must
        interleave late-scheduled events ahead of earlier-scheduled ones at
        the same instant (e.g. the lazy trace-arrival cursor of
        :mod:`repro.multitenant.cluster_sim`) gives them a negative tier.
        """
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past")
        return self._push(self._now + delay, tier, callback, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[["EventLoop"], None],
        label: str = "",
        tier: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time.

        The event fires at exactly ``time``: the timestamp is stored as
        given, never round-tripped through a relative delay (``now +
        (time - now)`` can land one ulp away from ``time``, which would
        break bit-identical replays that schedule the same absolute instant
        from different current times).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self._push(time, tier, callback, label)

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Move a pending event to absolute ``time``, returning a fresh handle.

        The original handle is cancelled; rescheduling an already-cancelled or
        already-executed event is an error.  The event keeps its tier.
        """
        if handle.cancelled:
            raise SimulationError("cannot reschedule a cancelled event")
        if handle.executed:
            raise SimulationError("cannot reschedule an event that already ran")
        handle.cancel()
        return self.schedule_at(
            time,
            handle._event.callback,
            label=handle.label,
            tier=handle._event.tier,
        )

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` when empty."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[3]
            if event.cancelled:
                continue
            self._now = event.time
            self.processed_events += 1
            event.executed = True
            event.callback(self)
            return True
        return False

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Serializable loop state: clock, counters and the live events.

        Callbacks are *not* serialized -- only each event's
        ``(time, tier, sequence, label)`` identity.  Restoring re-binds
        callbacks through a label resolver (:meth:`restore_state`), so the
        snapshot contains no closures or pickled code.  Cancelled events are
        dropped (they are unobservable), but sequence numbers are preserved
        verbatim so heap ordering after a restore is bit-identical to the
        uninterrupted run.
        """
        live = sorted(entry for entry in self._queue if not entry[3].cancelled)
        return {
            "now": self._now,
            "next_sequence": self._next_sequence,
            "processed_events": self.processed_events,
            "events": [
                [time, tier, sequence, event.label]
                for time, tier, sequence, event in live
            ],
        }

    def restore_state(
        self,
        state: Dict[str, Any],
        resolver: Callable[[str], Callable[["EventLoop"], None]],
    ) -> List[EventHandle]:
        """Rebuild the queue from :meth:`snapshot_state` output.

        ``resolver`` maps each stored event label back to its callback (the
        caller owns the label registry).  Returns one :class:`EventHandle`
        per restored event, aligned with ``state["events"]``, so callers can
        re-wire the handles they track (tick, expiries).  The
        loop must be fresh (nothing scheduled, never run).
        """
        if self._queue or self._next_sequence or self.processed_events:
            raise SimulationError("can only restore into a fresh event loop")
        self._now = float(state["now"])
        self._next_sequence = int(state["next_sequence"])
        self.processed_events = int(state["processed_events"])
        handles: List[EventHandle] = []
        for time, tier, sequence, label in state["events"]:
            event = _QueuedEvent(
                float(time), int(tier), int(sequence), resolver(label), label
            )
            self._queue.append((event.time, event.tier, event.sequence, event))
            handles.append(EventHandle(event))
        heapq.heapify(self._queue)
        return handles
