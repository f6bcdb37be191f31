"""Bounded-memory streaming telemetry for multi-tenant runs.

The exact stream metrics in :mod:`repro.multitenant.metrics` are computed
from fully materialized per-job result lists -- fine at the 5k-job scale of
the committed benchmarks, fatal at the ROADMAP's million-job north star
(the result list alone is O(jobs), and ``queue_depth_timeseries`` is
O(events)).  This module is the streaming alternative: a :class:`Telemetry`
sink fed *online* by the simulator loop at every job-lifecycle transition,
holding

* :class:`QuantileSketch` percentile sketches for JCT and queueing delay
  (Greenwald-Khanna, with a deterministic worst-case rank-error bound --
  see the class docstring for why GK over the P\\ :sup:`2` heuristic);
* exact per-outcome / per-tenant / per-QPU counters plus exact running
  mean/min/max accumulators;
* the current and the maximum queue depth, maintained online at every
  admission / placement / requeue / drop transition (the event line of
  each of those transitions carries the exact depth after it); and
* an optional structured jsonl event stream with a documented schema, from
  which a sink -- and therefore a full :class:`~repro.multitenant.metrics.
  StreamSummary` -- can be rebuilt offline without re-simulating
  (:meth:`Telemetry.from_events`; ``scripts/bench_report.py --events``).

Because the sink sees *every* requeue transition, its maximum depth and
the depths in its event stream are exact under active preemption, where
the result-reconstructed ``queue_depth_timeseries`` undercounts re-queued
victims (it only knows each job's first queue stay).

The sink is strictly observational: it consumes no simulator RNG and
never influences control flow, so attaching one to a seeded run leaves
the per-job results bit-identical (pinned by A/B tests).  Memory is
O(sketch + #tenants + #QPUs), independent of the number of jobs and
events.

Event schema (one JSON object per line; field order not significant)::

    event        one of job_arrived / admitted / rejected / placed /
                 preempted / requeued / migrated / completed / expired /
                 stranded / failed / qpu_join / qpu_drain / qpu_fail /
                 calibration_start / calibration_end
    t            simulation time of the transition
    job          job id (absent on fleet events, which carry ``qpu``)

    job_arrived  + circuit, qubits[, tenant]
    admitted     + depth               (queue depth after the transition)
    placed       + depth, qpus, first[, wait]
    preempted    + n                   (the job's eviction count so far)
    requeued     + depth
    migrated     + n                   (the job's migration count so far)
    rejected     (terminal; no extra fields)
    expired      + depth, wait
    completed    + jct, wait, qpus_used, n_preempt, n_migrate, wasted_time,
                   wasted_ops
    stranded     + depth, wasted_time, wasted_ops, n_preempt, n_migrate
    failed       + wait, wasted_time, wasted_ops, n_preempt, n_migrate

    qpu_join           + qpu          (a QPU entered or re-entered the fleet)
    qpu_fail           + qpu, interrupted   (jobs holding qubits there)
    qpu_drain          + qpu, migrated, requeued
    calibration_start  + qpu, epr     (the temporary EPR success probability)
    calibration_end    + qpu

Terminal events (rejected / expired / completed / stranded / failed)
additionally carry ``tenant`` when the run was given tenant ids.
``stranded`` reports jobs whose run *ended* in the preempted state
(``outcome="preempted"``); ``failed`` reports jobs dropped terminally by a
QPU failure under a fault injector's ``on_failure="drop"`` mode (see
:mod:`repro.multitenant.faults`).  Fleet events carry a ``qpu`` id and no
``job`` field; the sink folds them into per-QPU downtime / availability
and interrupted-job counters (:meth:`Telemetry.qpu_availability`).
See ``docs/architecture.md`` ("Telemetry & observability") for the memory
model and the exact-vs-sketch guarantees.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import warnings
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union

from .admission import JobOutcome
from .checkpoint import CheckpointError

#: Every event type the structured stream can emit, in lifecycle order.
TELEMETRY_EVENTS: Tuple[str, ...] = (
    "job_arrived",
    "admitted",
    "rejected",
    "placed",
    "preempted",
    "requeued",
    "migrated",
    "completed",
    "expired",
    "stranded",
    "failed",
    "qpu_join",
    "qpu_drain",
    "qpu_fail",
    "calibration_start",
    "calibration_end",
)

#: The fleet-dynamics subset of :data:`TELEMETRY_EVENTS` (no ``job`` field).
FLEET_TELEMETRY_EVENTS: Tuple[str, ...] = (
    "qpu_join",
    "qpu_drain",
    "qpu_fail",
    "calibration_start",
    "calibration_end",
)


class QuantileSketch:
    """Greenwald-Khanna streaming quantiles with a deterministic rank bound.

    Maintains an epsilon-approximate summary of a value stream in
    O((1/eps) * log(eps * n)) memory -- a few hundred tuples for a
    million-value stream at the default ``epsilon`` -- such that
    :meth:`quantile` returns an *observed* value whose rank is within
    ``2 * epsilon * n + 1`` of the requested rank, for any input order.
    (The classic invariant ``g_i + delta_i <= floor(2 eps n)`` is
    maintained by construction, so the bound is worst-case, not
    probabilistic.)

    The P\\ :sup:`2` estimator the literature often reaches for is O(1) but
    purely heuristic: on adversarial streams (sorted input, extreme tails)
    its rank error is unbounded, which makes a pinned error tolerance --
    this repo's acceptance criterion, enforced by Hypothesis property
    tests -- impossible to guarantee.  GK trades a logarithmic factor of
    memory for a provable bound; min, max, count and mean are tracked
    exactly on the side.
    """

    __slots__ = (
        "epsilon",
        "count",
        "_values",
        "_g",
        "_delta",
        "_since_compress",
        "_compress_every",
        "sum",
        "min",
        "max",
    )

    _CHECKPOINT_EXCLUDE = {
        "_compress_every": "derived from epsilon in __init__ and never mutated; from_state recomputes it",
    }

    def __init__(self, epsilon: float = 0.005) -> None:
        if not 0.0 < epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon}")
        self.epsilon = float(epsilon)
        self.count = 0
        self._values: List[float] = []
        self._g: List[int] = []
        self._delta: List[int] = []
        self._since_compress = 0
        self._compress_every = max(1, int(1.0 / (2.0 * epsilon)))
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def mean(self) -> float:
        """Exact running mean (0.0 while empty)."""
        return self.sum / self.count if self.count else 0.0

    @property
    def size(self) -> int:
        """Number of summary tuples currently held (the memory footprint)."""
        return len(self._values)

    def add(self, value: float) -> None:
        """Insert one observation."""
        v = float(value)
        if math.isnan(v):
            raise ValueError("cannot add NaN to a quantile sketch")
        threshold = int(2.0 * self.epsilon * self.count)
        index = bisect.bisect_left(self._values, v)
        # Tuples at the extremes carry delta=0 so min/max stay exact.
        delta = 0 if index in (0, len(self._values)) else max(0, threshold - 1)
        self._values.insert(index, v)
        self._g.insert(index, 1)
        self._delta.insert(index, delta)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self._since_compress += 1
        if self._since_compress >= self._compress_every:
            self._compress()

    def _compress(self) -> None:
        self._since_compress = 0
        threshold = int(2.0 * self.epsilon * self.count)
        if threshold <= 1 or len(self._values) < 3:
            return
        values, g, delta = self._values, self._g, self._delta
        # Merge right-to-left; the first and last tuples are never removed,
        # so the exact min/max anchors survive every compression.
        for i in range(len(values) - 2, 0, -1):
            if g[i] + g[i + 1] + delta[i + 1] <= threshold:
                g[i + 1] += g[i]
                del values[i], g[i], delta[i]

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (0.0 for an empty sketch)."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = max(1, min(self.count, math.ceil(q * self.count)))
        # Return the tuple whose possible-rank midpoint is closest to the
        # target: every tuple satisfies rmax - rmin <= 2 eps n, and GK
        # guarantees some tuple's interval overlaps [rank - eps n,
        # rank + eps n], so the winner's rank is within 2 eps n + 1.
        best = self._values[0]
        best_err = math.inf
        rmin = 0
        for i in range(len(self._values)):
            rmin += self._g[i]
            midpoint = rmin + self._delta[i] / 2.0
            err = abs(midpoint - rank)
            if err < best_err:
                best_err = err
                best = self._values[i]
        return best

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    def checkpoint_state(self) -> Dict[str, Any]:
        """Json-serializable sketch state (bit-exact float round trip)."""
        return {
            "epsilon": self.epsilon,
            "count": self.count,
            "values": list(self._values),
            "g": list(self._g),
            "delta": list(self._delta),
            "since_compress": self._since_compress,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`checkpoint_state` output."""
        sketch = cls(epsilon=float(state["epsilon"]))
        sketch.count = int(state["count"])
        sketch._values = [float(v) for v in state["values"]]
        sketch._g = [int(v) for v in state["g"]]
        sketch._delta = [int(v) for v in state["delta"]]
        sketch._since_compress = int(state["since_compress"])
        sketch.sum = float(state["sum"])
        sketch.min = float(state["min"])
        sketch.max = float(state["max"])
        return sketch


def iter_events(
    source: Union[str, os.PathLike, IO[str], Iterable[str]]
) -> Iterable[dict]:
    """Yield parsed event records from a jsonl path, file object or lines.

    A malformed *final* line is tolerated with a warning: the exporter
    flushes after every event, so a crashed run can tear at most the last
    line of the file, and that torn tail is a recoverable artifact rather
    than corruption.  A malformed line anywhere *before* the end still
    raises -- nothing legitimate produces one.  So does, on any line, a
    value that is not a JSON object, or (in a file read by path) bytes
    that are not UTF-8: the exporter writes ASCII JSON objects only, so a
    torn tail is neither.  Every such error is a ``ValueError`` naming the
    line.
    """
    for _, record in _numbered_events(source):
        yield record


def _numbered_events(
    source: Union[str, os.PathLike, IO[str], Iterable[str]]
) -> Iterable[Tuple[int, dict]]:
    """:func:`iter_events` with each record's line number."""
    if isinstance(source, (str, os.PathLike)):
        with open(os.fspath(source), "rb") as stream:
            yield from _parse_event_lines(stream)
        return
    yield from _parse_event_lines(source)


def _parse_event_lines(
    lines: Iterable[Union[str, bytes]]
) -> Iterable[Tuple[int, dict]]:
    torn: Optional[Tuple[int, Exception]] = None
    for line_no, raw in enumerate(lines, 1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"telemetry event line {line_no} is not UTF-8: {exc}"
                ) from None
        line = raw.strip()
        if not line:
            continue
        if torn is not None:
            raise ValueError(
                f"corrupt telemetry event on line {torn[0]}: {torn[1]} "
                "(only the final line may be truncated)"
            )
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # A RecursionError is JSON nested deeper than the parser goes.
            torn = (line_no, exc)
            continue
        if not isinstance(record, dict):
            raise ValueError(
                f"telemetry event line {line_no} is not a JSON object: "
                f"{line[:80]!r}"
            )
        yield line_no, record
    if torn is not None:
        warnings.warn(
            f"skipping truncated telemetry event on final line {torn[0]} "
            "(crash artifact)",
            RuntimeWarning,
            stacklevel=4,
        )


def _is_number(value: Any) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_qpu(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_qpu_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_qpu, value))


def _is_tenant(value: Any) -> bool:
    # A per-tenant counter key, so hashable: never null, a list or an object.
    return isinstance(value, (str, int, float))


#: What a field the offline replay reads must hold: (check, description).
_FIELD_KINDS = {
    "number": (_is_number, "a finite number"),
    "count": (_is_count, "a non-negative integer"),
    "qpu": (_is_qpu, "an integer QPU id"),
    "qpus": (_is_qpu_list, "a list of integer QPU ids"),
    "tenant": (_is_tenant, "a string or number"),
}
_TERMINAL_WORK = (
    ("n_preempt", "count"),
    ("n_migrate", "count"),
    ("wasted_time", "number"),
    ("wasted_ops", "count"),
)
#: The fields :meth:`Telemetry.from_events` reads from an event type besides
#: ``t``, which it reads from every event, as (field, kind).  Terminal
#: events' optional ``wait`` and ``tenant`` are checked when present.
_REPLAY_FIELDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "placed": (("qpus", "qpus"),),
    "completed": (("jct", "number"),) + _TERMINAL_WORK,
    "stranded": _TERMINAL_WORK,
    "failed": _TERMINAL_WORK,
    "qpu_join": (("qpu", "qpu"),),
    "qpu_drain": (("qpu", "qpu"), ("migrated", "count"), ("requeued", "count")),
    "qpu_fail": (("qpu", "qpu"), ("interrupted", "count")),
    "calibration_start": (("qpu", "qpu"),),
    "calibration_end": (("qpu", "qpu"),),
}
_TERMINAL_OPTIONAL = (("wait", "number"), ("tenant", "tenant"))
_TERMINAL_OUTCOMES = {
    "completed": JobOutcome.COMPLETED,
    "rejected": JobOutcome.REJECTED,
    "expired": JobOutcome.EXPIRED,
    "stranded": JobOutcome.PREEMPTED,
    "failed": JobOutcome.FAILED,
}


def _check_replay_fields(record: dict, line_no: int) -> None:
    """Raise ``ValueError`` naming the line and the field unless every field
    the replay reads from ``record`` is present and of the right kind."""
    event = record.get("event")
    if event not in TELEMETRY_EVENTS:
        raise ValueError(
            f"telemetry event line {line_no}: unknown event {event!r}"
        )
    fields = (("t", "number"),) + _REPLAY_FIELDS.get(event, ())
    for field, _ in fields:
        if field not in record:
            raise ValueError(
                f"telemetry event line {line_no}: {event!r} event lacks "
                f"field {field!r}"
            )
    if event in _TERMINAL_OUTCOMES:
        fields += tuple(item for item in _TERMINAL_OPTIONAL if item[0] in record)
    for field, kind in fields:
        check, description = _FIELD_KINDS[kind]
        if not check(record[field]):
            raise ValueError(
                f"telemetry event line {line_no}: field {field!r} of the "
                f"{event!r} event must be {description}, got {record[field]!r}"
            )


class Telemetry:
    """Streaming metrics sink fed by the simulator at lifecycle transitions.

    Attach one via ``run_stream(..., telemetry=sink)`` (optionally with
    ``keep_results=False`` to drop the per-job result list altogether) and
    read the aggregate via :meth:`summary` /
    :meth:`~repro.multitenant.metrics.StreamSummary.from_telemetry`.

    Parameters
    ----------
    epsilon:
        Rank-error parameter of the JCT and queueing-delay sketches; an
        estimated percentile's rank is within ``2 * epsilon * n + 1`` of
        exact (see :class:`QuantileSketch`).
    events:
        ``None`` (no event stream), a path, or a writable file-like
        object; one JSON object per line in the schema documented in the
        module docstring.  Pass a path to let :meth:`close` own the file.
    """

    _CHECKPOINT_EXCLUDE = {
        "_stream": "open file handle; a resumed run reopens the events path in append mode after truncating to events['bytes']",
        "_owns_stream": "derived from how the stream was attached; recomputed when the resumed run reattaches events",
        "events_bytes": "captured inside the nested events descriptor as events['bytes']",
        "_events_path": "captured inside the nested events descriptor as events['path']",
    }

    def __init__(
        self,
        epsilon: float = 0.005,
        events: Union[None, str, os.PathLike, IO[str]] = None,
    ) -> None:
        self.jct = QuantileSketch(epsilon)
        self.queueing_delay = QuantileSketch(epsilon)
        self.outcome_counts: Dict[str, int] = {
            outcome.value: 0 for outcome in JobOutcome
        }
        self.tenant_counts: Dict[object, Dict[str, int]] = {}
        self.qpu_placements: Dict[int, int] = {}
        self.arrivals = 0
        self.admissions = 0
        self.placements = 0
        self.preemption_events = 0
        self.migration_events = 0
        self.preempted_jobs = 0
        self.stranded = 0
        self.wasted_time = 0.0
        self.wasted_ops = 0
        self.fleet_events: Dict[str, int] = {
            event: 0 for event in FLEET_TELEMETRY_EVENTS
        }
        self.interrupted_jobs = 0
        self.fleet_migrated = 0
        self.fleet_requeued = 0
        self.qpu_downtime: Dict[int, float] = {}
        self._offline_since: Dict[int, float] = {}
        self.depth = 0
        # The largest depth any finished instant ended at, and the latest
        # (time, depth), still open: a later transition at the same time
        # replaces it, so depths at one instant net out.
        self._max_depth = 0
        self._pending_depth: Optional[Tuple[float, int]] = None
        self._stream: Optional[IO[str]] = None
        self._owns_stream = False
        #: Bytes of complete, flushed events written to the stream so far.
        #: A checkpoint stores this offset; a resumed run truncates the
        #: jsonl file back to it, discarding at most one torn tail line.
        self.events_bytes = 0
        self._events_path: Optional[str] = None
        if events is not None:
            if hasattr(events, "write"):
                self._stream = events  # type: ignore[assignment]
            else:
                # Stored as str: a checkpoint writes the path into json.
                self._events_path = os.fspath(events)
                self._stream = open(self._events_path, "w", encoding="utf-8")
                self._owns_stream = True

    # ------------------------------------------------------------------
    # Event stream plumbing
    # ------------------------------------------------------------------
    def _emit(
        self, event: str, time: float, job_id: Optional[str] = None, **fields
    ) -> None:
        if self._stream is None:
            return
        record = {"event": event, "t": time}
        if job_id is not None:
            record["job"] = job_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        # One write + flush per event: a crash can tear at most the line
        # being written, which iter_events tolerates and a checkpoint
        # resume truncates away (json.dumps is ASCII, so len == bytes).
        line = json.dumps(record) + "\n"
        self._stream.write(line)
        self._stream.flush()
        self.events_bytes += len(line)

    def close(self) -> None:
        """Flush and (if this sink opened it) close the event stream."""
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
            self._stream = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Dict[str, Any]:
        """Everything needed to resume this sink bit-identically.

        Only sinks with no event stream or a *path-backed* one can be
        checkpointed: a caller-owned file object cannot be reopened by a
        resumed process.
        """
        if self._stream is not None and self._events_path is None:
            raise CheckpointError(
                "telemetry writing to a caller-owned file object cannot be "
                "checkpointed; pass a path as events= so the resumed run "
                "can reopen the stream"
            )
        events = None
        if self._events_path is not None:
            events = {"path": self._events_path, "bytes": self.events_bytes}
        return {
            "epsilon": self.jct.epsilon,
            "jct": self.jct.checkpoint_state(),
            "queueing_delay": self.queueing_delay.checkpoint_state(),
            "outcome_counts": dict(self.outcome_counts),
            "tenant_counts": [
                [tenant, dict(counts)]
                for tenant, counts in self.tenant_counts.items()
            ],
            "qpu_placements": [
                [qpu, count] for qpu, count in self.qpu_placements.items()
            ],
            "arrivals": self.arrivals,
            "admissions": self.admissions,
            "placements": self.placements,
            "preemption_events": self.preemption_events,
            "migration_events": self.migration_events,
            "preempted_jobs": self.preempted_jobs,
            "stranded": self.stranded,
            "wasted_time": self.wasted_time,
            "wasted_ops": self.wasted_ops,
            "fleet_events": dict(self.fleet_events),
            "interrupted_jobs": self.interrupted_jobs,
            "fleet_migrated": self.fleet_migrated,
            "fleet_requeued": self.fleet_requeued,
            "qpu_downtime": [
                [qpu, down] for qpu, down in self.qpu_downtime.items()
            ],
            "offline_since": [
                [qpu, since] for qpu, since in self._offline_since.items()
            ],
            "depth": self.depth,
            "max_depth": self._max_depth,
            "pending_depth": (
                None if self._pending_depth is None else list(self._pending_depth)
            ),
            "events": events,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt :meth:`checkpoint_state` output, rewiring the event stream.

        The sink must be freshly constructed *without* ``events=`` (passing
        a path to the constructor truncates the file; the snapshot's stream
        is reattached here instead, truncated to the last durable event so
        a torn tail line from the crash disappears) and with the same
        ``epsilon`` as the original.
        """
        if self.arrivals or self.total or self._stream is not None:
            raise CheckpointError(
                "restore_state needs a fresh Telemetry constructed without "
                "events= (the snapshot's stream is reattached here)"
            )
        if self.jct.epsilon != float(state["epsilon"]):
            raise CheckpointError(
                f"telemetry epsilon mismatch: snapshot has "
                f"{state['epsilon']!r}, this sink has {self.jct.epsilon!r}"
            )
        self.jct = QuantileSketch.from_state(state["jct"])
        self.queueing_delay = QuantileSketch.from_state(state["queueing_delay"])
        self.outcome_counts = {
            str(outcome): int(count)
            for outcome, count in state["outcome_counts"].items()
        }
        self.tenant_counts = {
            tenant: {str(k): int(v) for k, v in counts.items()}
            for tenant, counts in state["tenant_counts"]
        }
        self.qpu_placements = {
            int(qpu): int(count) for qpu, count in state["qpu_placements"]
        }
        self.arrivals = int(state["arrivals"])
        self.admissions = int(state["admissions"])
        self.placements = int(state["placements"])
        self.preemption_events = int(state["preemption_events"])
        self.migration_events = int(state["migration_events"])
        self.preempted_jobs = int(state["preempted_jobs"])
        self.stranded = int(state["stranded"])
        self.wasted_time = float(state["wasted_time"])
        self.wasted_ops = int(state["wasted_ops"])
        self.fleet_events = {
            str(event): int(count)
            for event, count in state["fleet_events"].items()
        }
        self.interrupted_jobs = int(state["interrupted_jobs"])
        self.fleet_migrated = int(state["fleet_migrated"])
        self.fleet_requeued = int(state["fleet_requeued"])
        self.qpu_downtime = {
            int(qpu): float(down) for qpu, down in state["qpu_downtime"]
        }
        self._offline_since = {
            int(qpu): float(since) for qpu, since in state["offline_since"]
        }
        self.depth = int(state["depth"])
        self._max_depth = int(state["max_depth"])
        pending = state["pending_depth"]
        self._pending_depth = (
            None if pending is None else (float(pending[0]), int(pending[1]))
        )
        events = state["events"]
        if events is not None:
            path = events["path"]
            offset = int(events["bytes"])
            try:
                size = os.path.getsize(path)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot reopen telemetry events file {path!r}: {exc}"
                ) from exc
            if size < offset:
                raise CheckpointError(
                    f"telemetry events file {path!r} is shorter than the "
                    f"snapshot's {offset} durable bytes ({size} on disk); "
                    "the file was truncated or replaced since the snapshot"
                )
            # Drop everything after the last durable event: at most one
            # torn line from the crash plus any events emitted after the
            # snapshot was taken (the resumed run re-emits those).
            with open(path, "r+b") as tail:
                tail.truncate(offset)
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True
            self._events_path = path
            self.events_bytes = offset

    # ------------------------------------------------------------------
    # Transition hooks (called by the simulator, in simulation order)
    # ------------------------------------------------------------------
    def job_arrived(
        self,
        job_id: str,
        time: float,
        circuit: Optional[str] = None,
        num_qubits: Optional[int] = None,
        tenant: Optional[object] = None,
    ) -> None:
        self.arrivals += 1
        self._emit(
            "job_arrived", time, job_id,
            circuit=circuit, qubits=num_qubits, tenant=tenant,
        )

    def job_admitted(self, job_id: str, time: float) -> None:
        self.admissions += 1
        self.depth += 1
        self._observe_depth(time)
        self._emit("admitted", time, job_id, depth=self.depth)

    def job_placed(
        self,
        job_id: str,
        time: float,
        qpus: Sequence[int] = (),
        first: bool = True,
        wait: Optional[float] = None,
    ) -> None:
        self.placements += 1
        self.depth -= 1
        self._observe_depth(time)
        for qpu in qpus:
            self.qpu_placements[qpu] = self.qpu_placements.get(qpu, 0) + 1
        self._emit(
            "placed", time, job_id,
            depth=self.depth, qpus=sorted(qpus), first=first, wait=wait,
        )

    def _observe_depth(self, time: float) -> None:
        """Fold the depth after a transition at ``time`` into the maximum.

        Only the last depth of each instant counts, as in
        ``metrics.queue_depth_timeseries``: a job placed at its own arrival
        instant never raises the maximum.
        """
        pending = self._pending_depth
        if pending is not None and pending[0] != time:
            self._max_depth = max(self._max_depth, pending[1])
        self._pending_depth = (time, self.depth)

    def job_preempted(self, job_id: str, time: float, count: int = 1) -> None:
        self._emit("preempted", time, job_id, n=count)

    def job_requeued(self, job_id: str, time: float) -> None:
        self.depth += 1
        self._observe_depth(time)
        self._emit("requeued", time, job_id, depth=self.depth)

    def job_migrated(self, job_id: str, time: float, count: int = 1) -> None:
        self._emit("migrated", time, job_id, n=count)

    # ------------------------------------------------------------------
    # Fleet-dynamics hooks (called by the fault layer, in simulation order)
    # ------------------------------------------------------------------
    def qpu_joined(self, qpu_id: int, time: float) -> None:
        """A QPU entered (or re-entered) the fleet; closes any open outage."""
        self.fleet_events["qpu_join"] += 1
        went_offline = self._offline_since.pop(qpu_id, None)
        if went_offline is not None:
            self.qpu_downtime[qpu_id] = self.qpu_downtime.get(qpu_id, 0.0) + (
                time - went_offline
            )
        self._emit("qpu_join", time, qpu=qpu_id)

    def qpu_failed(self, qpu_id: int, time: float, interrupted: int = 0) -> None:
        """Abrupt failure; ``interrupted`` jobs held qubits there."""
        self.fleet_events["qpu_fail"] += 1
        self.interrupted_jobs += interrupted
        self._offline_since.setdefault(qpu_id, time)
        self._emit("qpu_fail", time, qpu=qpu_id, interrupted=interrupted)

    def qpu_drained(
        self, qpu_id: int, time: float, migrated: int = 0, requeued: int = 0
    ) -> None:
        """Graceful decommission: jobs live-migrated off or requeued."""
        self.fleet_events["qpu_drain"] += 1
        self.fleet_migrated += migrated
        self.fleet_requeued += requeued
        self._offline_since.setdefault(qpu_id, time)
        self._emit(
            "qpu_drain", time, qpu=qpu_id, migrated=migrated, requeued=requeued
        )

    def calibration_started(
        self,
        qpu_id: int,
        time: float,
        epr_success_probability: Optional[float] = None,
    ) -> None:
        """A calibration window degraded the QPU's EPR success probability."""
        self.fleet_events["calibration_start"] += 1
        self._emit(
            "calibration_start", time, qpu=qpu_id, epr=epr_success_probability
        )

    def calibration_ended(self, qpu_id: int, time: float) -> None:
        self.fleet_events["calibration_end"] += 1
        self._emit("calibration_end", time, qpu=qpu_id)

    def qpu_availability(self, horizon: float) -> Dict[int, float]:
        """Fraction of ``[0, horizon]`` each fault-affected QPU spent online.

        Only QPUs that failed or drained at least once appear (a QPU no
        fleet event ever touched was trivially 100% available); an outage
        still open at ``horizon`` is counted up to ``horizon``.
        """
        if not math.isfinite(horizon) or horizon <= 0.0:
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        availability: Dict[int, float] = {}
        # detlint: ignore[DET003] QPU ids are distinct ints; sorted() output is canonical regardless of set order
        for qpu_id in sorted(set(self.qpu_downtime) | set(self._offline_since)):
            down = self.qpu_downtime.get(qpu_id, 0.0)
            went_offline = self._offline_since.get(qpu_id)
            if went_offline is not None:
                down += max(0.0, horizon - went_offline)
            availability[qpu_id] = max(0.0, 1.0 - down / horizon)
        return availability

    def record_result(
        self,
        result,
        tenant: Optional[object] = None,
        time: Optional[float] = None,
    ) -> None:
        """Fold one terminal :class:`TenantJobResult` into the aggregates.

        ``time`` overrides the transition timestamp for outcomes whose
        result carries none that matches the queue departure (stranded
        jobs leave the pending queue when the run drains, not at their
        recorded eviction time).
        """
        outcome = JobOutcome(result.outcome)
        jct = result.job_completion_time
        wait = result.queueing_delay
        self._terminal(
            outcome=outcome,
            job_id=result.job_id,
            time=time,
            dropped_time=result.dropped_time,
            completion_time=result.completion_time,
            jct=None if math.isnan(jct) else jct,
            wait=None if math.isnan(wait) else wait,
            num_qpus_used=result.num_qpus_used,
            preemptions=result.num_preemptions,
            migrations=result.num_migrations,
            wasted_time=result.wasted_time,
            wasted_ops=result.wasted_ops,
            tenant=tenant,
        )

    def _terminal(
        self,
        outcome: JobOutcome,
        job_id: str,
        time: Optional[float],
        dropped_time: Optional[float],
        completion_time: Optional[float],
        jct: Optional[float],
        wait: Optional[float],
        num_qpus_used: int,
        preemptions: int,
        migrations: int,
        wasted_time: float,
        wasted_ops: int,
        tenant: Optional[object],
    ) -> None:
        self.outcome_counts[outcome.value] += 1
        if tenant is not None:
            per_tenant = self.tenant_counts.setdefault(
                tenant, {o.value: 0 for o in JobOutcome}
            )
            per_tenant[outcome.value] += 1
        self.preemption_events += preemptions
        self.migration_events += migrations
        self.wasted_time += wasted_time
        self.wasted_ops += wasted_ops
        if preemptions > 0:
            self.preempted_jobs += 1
        if wait is not None:
            # Mirrors metrics.queueing_delays: completed and stranded jobs
            # observed their wait at first placement, expired jobs at the
            # deadline; rejected jobs never queued (wait is None).
            self.queueing_delay.add(wait)
        if outcome is JobOutcome.COMPLETED:
            assert jct is not None
            self.jct.add(jct)
            self._emit(
                "completed", completion_time, job_id,
                jct=jct, wait=wait, qpus_used=num_qpus_used,
                n_preempt=preemptions, n_migrate=migrations,
                wasted_time=wasted_time, wasted_ops=wasted_ops,
                tenant=tenant,
            )
            return
        if outcome is JobOutcome.REJECTED:
            self._emit("rejected", dropped_time, job_id, tenant=tenant)
            return
        if outcome is JobOutcome.EXPIRED:
            self.depth -= 1
            when = dropped_time if time is None else time
            self._observe_depth(when)
            self._emit(
                "expired", when, job_id,
                depth=self.depth, wait=wait, tenant=tenant,
            )
            return
        if outcome is JobOutcome.FAILED:
            # The job was placed/running when its QPU failed, so it holds no
            # pending-queue slot: the depth is unchanged, and everything it
            # executed is already folded into the wasted-work totals above.
            when = dropped_time if time is None else time
            self._emit(
                "failed", when, job_id,
                wait=wait, wasted_time=wasted_time, wasted_ops=wasted_ops,
                n_preempt=preemptions, n_migrate=migrations, tenant=tenant,
            )
            return
        # outcome is PREEMPTED: the job ended the run evicted and pending.
        self.stranded += 1
        self.depth -= 1
        when = dropped_time if time is None else time
        self._observe_depth(when)
        self._emit(
            "stranded", when, job_id,
            depth=self.depth, wasted_time=wasted_time, wasted_ops=wasted_ops,
            n_preempt=preemptions, n_migrate=migrations, tenant=tenant,
        )

    # ------------------------------------------------------------------
    # Aggregate accessors
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Jobs with a recorded terminal outcome."""
        # detlint: ignore[DET003] integer outcome counts; sum is order-insensitive
        return sum(self.outcome_counts.values())

    @property
    def completed(self) -> int:
        return self.outcome_counts[JobOutcome.COMPLETED.value]

    @property
    def rejection_rate(self) -> float:
        """Fraction of finished jobs that did not run to completion."""
        total = self.total
        if total == 0:
            return 0.0
        return (total - self.completed) / total

    @property
    def max_queue_depth(self) -> int:
        """The largest depth an instant ended at, the open instant included."""
        pending = self._pending_depth
        if pending is not None and pending[1] > self._max_depth:
            return pending[1]
        return self._max_depth

    def drop_aware_jct_percentile(self, p: float) -> float:
        """Sketch-backed analogue of :func:`metrics.drop_aware_jct_percentile`.

        Dropped jobs count as an unbounded completion time, so the result
        is ``inf`` unless more than ``(100 - p)%`` of the submitted jobs
        completed; otherwise the rank is rescaled into the completed-JCT
        sketch.
        """
        total = self.total
        if total == 0:
            return 0.0
        rank = min(total, max(1, math.ceil(p / 100.0 * total)))
        if rank > self.completed:
            return math.inf
        return self.jct.quantile(rank / self.completed)

    def summary(self):
        """Build the sketch-backed :class:`StreamSummary` (see
        :meth:`StreamSummary.from_telemetry`)."""
        from .metrics import (
            CompletionStats,
            PreemptionStats,
            QueueingDelayStats,
            StreamSummary,
        )

        delay = self.queueing_delay
        completion = self.jct
        return StreamSummary(
            total=self.total,
            completed=self.completed,
            rejected=self.outcome_counts[JobOutcome.REJECTED.value],
            expired=self.outcome_counts[JobOutcome.EXPIRED.value],
            failed=self.outcome_counts[JobOutcome.FAILED.value],
            rejection_rate=self.rejection_rate,
            queueing=QueueingDelayStats(
                count=delay.count,
                mean=delay.mean,
                p50=delay.percentile(50),
                p95=delay.percentile(95),
                p99=delay.percentile(99),
            ),
            completion=CompletionStats(
                count=completion.count,
                mean=completion.mean,
                median=completion.percentile(50),
                p90=completion.percentile(90),
                p99=completion.percentile(99),
                maximum=completion.max if completion.count else 0.0,
            ),
            max_queue_depth=self.max_queue_depth,
            preemption=PreemptionStats(
                preempted_jobs=self.preempted_jobs,
                stranded=self.stranded,
                preemption_events=self.preemption_events,
                migration_events=self.migration_events,
                wasted_time=self.wasted_time,
                wasted_ops=self.wasted_ops,
            ),
        )

    # ------------------------------------------------------------------
    # Offline replay
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        source: Union[str, os.PathLike, IO[str], Iterable[str]],
        epsilon: float = 0.005,
    ) -> "Telemetry":
        """Rebuild a sink from an exported jsonl event stream.

        Replaying feeds the sketches and counters in the original
        emission order, so the rebuilt summary is identical to the one
        the online sink produced (sketch state depends on insertion
        order, which the file preserves).

        Besides the lines :func:`iter_events` refuses, a line whose event
        lacks a field the replay reads, or holds a value of the wrong type
        there (a non-finite or non-numeric ``t``, a fleet event without an
        integer ``qpu``, ...), raises a ``ValueError`` naming the line and
        the field.  Fields the replay does not read are not checked.
        """
        sink = cls(epsilon=epsilon)
        for line_no, record in _numbered_events(source):
            _check_replay_fields(record, line_no)
            sink._apply(record)
        return sink

    def _apply(self, record: dict) -> None:
        """Replay one event whose fields :func:`_check_replay_fields` passed."""
        event = record["event"]
        time = record["t"]
        job_id = record.get("job", "")
        if event == "job_arrived":
            self.job_arrived(
                job_id, time,
                circuit=record.get("circuit"),
                num_qubits=record.get("qubits"),
                tenant=record.get("tenant"),
            )
        elif event == "admitted":
            self.job_admitted(job_id, time)
        elif event == "placed":
            self.job_placed(
                job_id, time,
                qpus=record["qpus"],
                first=record.get("first", True),
                wait=record.get("wait"),
            )
        elif event == "preempted":
            self.job_preempted(job_id, time, count=record.get("n", 1))
        elif event == "requeued":
            self.job_requeued(job_id, time)
        elif event == "migrated":
            self.job_migrated(job_id, time, count=record.get("n", 1))
        elif event == "qpu_join":
            self.qpu_joined(record["qpu"], time)
        elif event == "qpu_fail":
            self.qpu_failed(record["qpu"], time, interrupted=record["interrupted"])
        elif event == "qpu_drain":
            self.qpu_drained(
                record["qpu"], time,
                migrated=record["migrated"],
                requeued=record["requeued"],
            )
        elif event == "calibration_start":
            self.calibration_started(record["qpu"], time, record.get("epr"))
        elif event == "calibration_end":
            self.calibration_ended(record["qpu"], time)
        else:
            self._terminal(
                outcome=_TERMINAL_OUTCOMES[event],
                job_id=job_id,
                time=time,
                dropped_time=time,
                completion_time=time,
                jct=record.get("jct"),
                wait=record.get("wait"),
                num_qpus_used=record.get("qpus_used", 0),
                preemptions=record.get("n_preempt", 0),
                migrations=record.get("n_migrate", 0),
                wasted_time=record.get("wasted_time", 0.0),
                wasted_ops=record.get("wasted_ops", 0),
                tenant=record.get("tenant"),
            )
