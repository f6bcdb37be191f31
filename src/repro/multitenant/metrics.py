"""Metrics for multi-tenant runs: JCT statistics and stream health.

Besides the completion-time statistics of Figs. 14-17 (their CDF summary
is :func:`repro.analysis.format_cdf_summary`), this module aggregates the
streaming-mode signals that admission control is judged by: the rejection
rate, queueing-delay percentiles (p50/p95/p99), the pending queue depth
over time, and the all-in-one :class:`StreamSummary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .admission import JobOutcome


@dataclass(frozen=True)
class CompletionStats:
    """Summary statistics of a set of job completion times."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "CompletionStats":
        # len()-based emptiness: `not times` on a numpy array of 2+ elements
        # raises the ambiguous-truth-value ValueError.
        if len(times) == 0:
            return cls(count=0, mean=0.0, median=0.0, p90=0.0, p99=0.0, maximum=0.0)
        array = np.asarray(times, dtype=float)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            median=float(np.percentile(array, 50)),
            p90=float(np.percentile(array, 90)),
            p99=float(np.percentile(array, 99)),
            maximum=float(array.max()),
        )


def drop_aware_jct_percentile(results: Sequence, percentile: float) -> float:
    """JCT percentile over *all* submitted jobs, dropped ones counted as inf.

    The completed-jobs-only percentile suffers survivorship bias: a policy
    that drops its slowest jobs looks faster.  Here every rejected, expired
    or stranded-preempted job contributes an unbounded completion time, so
    the p-th percentile is finite only when more than ``(100 - p)%`` of the
    submitted jobs actually completed.
    """
    if len(results) == 0:
        return 0.0
    jcts = [
        result.job_completion_time if result.completed else math.inf
        for result in results
    ]
    jcts.sort()
    # Nearest-rank percentile: inf stays inf (np.percentile interpolates,
    # which would turn a boundary between finite and inf into nan).
    rank = min(len(jcts) - 1, max(0, math.ceil(percentile / 100.0 * len(jcts)) - 1))
    return float(jcts[rank])


def relative_to_baseline(
    values: Dict[str, float], baseline: str
) -> Dict[str, float]:
    """Normalise a method -> value mapping by the baseline's value (Fig. 22)."""
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} missing from {sorted(values)}")
    reference = values[baseline]
    if reference == 0:
        raise ValueError("baseline value is zero; cannot normalise")
    return {name: value / reference for name, value in values.items()}


# ----------------------------------------------------------------------
# Streaming / admission-control metrics
# ----------------------------------------------------------------------
def outcome_counts(results: Iterable) -> Dict[str, int]:
    """Per-outcome job counts of a stream run (completed / rejected / expired)."""
    counts = {outcome.value: 0 for outcome in JobOutcome}
    for result in results:
        counts[JobOutcome(result.outcome).value] += 1
    return counts


def rejection_rate(results: Sequence) -> float:
    """Fraction of submitted jobs that did not run to completion.

    Counts arrivals rejected outright, admitted jobs that expired in the
    queue, and jobs stranded in the preempted state; 0.0 for an empty
    result list.
    """
    # len()-based emptiness: `not results` on a numpy array of 2+ elements
    # raises the ambiguous-truth-value ValueError.
    if len(results) == 0:
        return 0.0
    dropped = sum(1 for result in results if not result.completed)
    return dropped / len(results)


def queueing_delays(
    results: Iterable, include_expired: bool = True
) -> List[float]:
    """Queueing delays of the jobs that entered the pending queue.

    Completed jobs waited until placement; expired jobs waited until the
    deadline dropped them (included by default since they experienced that
    delay too).  Rejected jobs never queued and are always excluded.
    """
    delays: List[float] = []
    for result in results:
        if result.outcome == JobOutcome.REJECTED:
            continue
        if result.outcome == JobOutcome.EXPIRED and not include_expired:
            continue
        delay = result.queueing_delay
        if not math.isnan(delay):
            delays.append(delay)
    return delays


@dataclass(frozen=True)
class QueueingDelayStats:
    """p50/p95/p99 queueing delay of the jobs that entered the queue."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_results(
        cls, results: Iterable, include_expired: bool = True
    ) -> "QueueingDelayStats":
        delays = queueing_delays(results, include_expired=include_expired)
        if not delays:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0)
        array = np.asarray(delays, dtype=float)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p95=float(np.percentile(array, 95)),
            p99=float(np.percentile(array, 99)),
        )


def queue_depth_timeseries(results: Iterable) -> List[Tuple[float, int]]:
    """Pending-queue depth over time, as (time, depth) step points.

    Each admitted job contributes +1 at its arrival and -1 when it first
    leaves the queue (the first placement for jobs that ran -- including
    stranded-preempted ones, whose ``placement_time`` records it -- and the
    drop time for expired ones); rejected jobs never enter the queue.
    Events at the same timestamp are netted, so a job placed at its own
    arrival instant does not register as a depth change.

    Limitation: per-job results carry only the *first* queue stay, so the
    requeue intervals of preempted jobs are not visible here; under an
    active preemption policy the series is exact for the arrival queue but
    undercounts re-queued victims.  A :class:`~repro.multitenant.Telemetry`
    sink sees every requeue transition: the ``depth`` field of its event
    stream, netted per instant as here, and its ``max_queue_depth`` are
    exact under preemption too (regression-pinned in
    ``tests/test_telemetry.py``).
    """
    deltas: Dict[float, int] = {}
    for result in results:
        if result.outcome == JobOutcome.REJECTED:
            continue
        departure = (
            result.placement_time
            if not math.isnan(result.placement_time)
            else result.dropped_time
        )
        if departure is None or math.isnan(departure):
            continue
        deltas[result.arrival_time] = deltas.get(result.arrival_time, 0) + 1
        deltas[departure] = deltas.get(departure, 0) - 1
    depth = 0
    series: List[Tuple[float, int]] = []
    for time in sorted(deltas):
        if deltas[time] == 0:
            continue
        depth += deltas[time]
        series.append((time, depth))
    return series


def max_queue_depth(results: Iterable) -> int:
    """Largest pending-queue depth the stream ever reached."""
    series = queue_depth_timeseries(results)
    return max((depth for _, depth in series), default=0)


# ----------------------------------------------------------------------
# Preemption / migration metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PreemptionStats:
    """Transit accounting for the preemption subsystem.

    ``preempted_jobs`` counts jobs evicted at least once (whatever their
    final outcome); ``stranded`` counts jobs whose run *ended* in the
    preempted state (``outcome="preempted"``).
    """

    preempted_jobs: int
    stranded: int
    preemption_events: int
    migration_events: int
    wasted_time: float
    wasted_ops: int

    @classmethod
    def from_results(cls, results: Iterable) -> "PreemptionStats":
        preempted_jobs = 0
        stranded = 0
        preemption_events = 0
        migration_events = 0
        wasted_time = 0.0
        wasted_ops = 0
        for result in results:
            events = getattr(result, "num_preemptions", 0)
            preemption_events += events
            migration_events += getattr(result, "num_migrations", 0)
            wasted_time += getattr(result, "wasted_time", 0.0)
            wasted_ops += getattr(result, "wasted_ops", 0)
            if events > 0:
                preempted_jobs += 1
            if result.outcome == JobOutcome.PREEMPTED:
                stranded += 1
        return cls(
            preempted_jobs=preempted_jobs,
            stranded=stranded,
            preemption_events=preemption_events,
            migration_events=migration_events,
            wasted_time=float(wasted_time),
            wasted_ops=wasted_ops,
        )


@dataclass(frozen=True)
class StreamSummary:
    """One-stop health summary of a streaming (incoming-job) run.

    Two constructors: :meth:`from_results` computes everything exactly
    from a materialized per-job result list (O(jobs) memory);
    :meth:`from_telemetry` reads a streaming
    :class:`~repro.multitenant.Telemetry` sink, where counters, means,
    extrema and the max queue depth are exact and the p50/p90/p95/p99
    fields are sketch estimates within the sink's documented rank-error
    bound.
    """

    total: int
    completed: int
    rejected: int
    expired: int
    rejection_rate: float
    queueing: QueueingDelayStats
    completion: CompletionStats
    max_queue_depth: int
    preemption: PreemptionStats
    #: Jobs dropped terminally by a QPU failure (fault injector running in
    #: ``on_failure="drop"`` mode); 0 in fault-free runs.
    failed: int = 0

    @classmethod
    def from_results(cls, results: Sequence) -> "StreamSummary":
        counts = outcome_counts(results)
        jct = [r.job_completion_time for r in results if r.completed]
        return cls(
            total=len(results),
            completed=counts[JobOutcome.COMPLETED.value],
            rejected=counts[JobOutcome.REJECTED.value],
            expired=counts[JobOutcome.EXPIRED.value],
            failed=counts[JobOutcome.FAILED.value],
            rejection_rate=rejection_rate(results),
            queueing=QueueingDelayStats.from_results(results),
            completion=CompletionStats.from_times(jct),
            max_queue_depth=max_queue_depth(results),
            preemption=PreemptionStats.from_results(results),
        )

    @classmethod
    def from_telemetry(cls, telemetry) -> "StreamSummary":
        """Sketch-backed summary from a :class:`~repro.multitenant.Telemetry`
        sink -- the bounded-memory path for runs that never retained their
        per-job result lists (``run_stream(..., keep_results=False)``).
        """
        return telemetry.summary()
