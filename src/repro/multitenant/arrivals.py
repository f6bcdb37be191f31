"""Arrival-process generators for the incoming-job mode (Sec. V-B).

The paper's batch manager supports two modes; in the *incoming job* mode jobs
arrive one after another.  These helpers generate arrival time sequences for
that mode: Poisson (memoryless tenant requests), uniform spacing, bursty
arrivals (several tenants submitting at once, then a gap), and replay of
recorded submission traces.  Every sequence feeds
:meth:`~repro.multitenant.MultiTenantSimulator.run_stream`, where each arrival
becomes an event on the shared discrete-event loop.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np


def _arrival_float(value) -> float:
    """``float(value)``, reading an int too large for a float as infinite so
    that the caller's finiteness check refuses it by index."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def poisson_arrivals(
    num_jobs: int,
    rate: float,
    seed: Optional[int] = None,
    start: float = 0.0,
) -> List[float]:
    """Arrival times of a Poisson process with ``rate`` jobs per time unit.

    Inter-arrival gaps are exponential with mean ``1 / rate``; times are
    cumulative starting from ``start``.
    """
    if num_jobs < 0:
        raise ValueError("num_jobs cannot be negative")
    if not math.isfinite(rate) or rate <= 0:
        raise ValueError("arrival rate must be positive and finite")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=num_jobs)
    return list(start + np.cumsum(gaps))


def uniform_arrivals(
    num_jobs: int, interval: float, start: float = 0.0
) -> List[float]:
    """Evenly spaced arrivals: one job every ``interval`` time units."""
    if num_jobs < 0:
        raise ValueError("num_jobs cannot be negative")
    if not math.isfinite(interval) or interval < 0:
        raise ValueError("interval must be non-negative and finite")
    return [start + index * interval for index in range(num_jobs)]


def bursty_arrivals(
    num_jobs: int,
    burst_size: int,
    burst_gap: float,
    seed: Optional[int] = None,
    jitter: float = 0.0,
    start: float = 0.0,
) -> List[float]:
    """Arrivals in bursts of ``burst_size`` jobs separated by ``burst_gap``.

    Optional exponential ``jitter`` spreads the jobs inside a burst so they are
    not perfectly simultaneous.
    """
    if num_jobs < 0:
        raise ValueError("num_jobs cannot be negative")
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    if burst_gap < 0 or jitter < 0:
        raise ValueError("burst_gap and jitter cannot be negative")
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    for index in range(num_jobs):
        burst_index = index // burst_size
        offset = float(rng.exponential(jitter)) if jitter > 0 else 0.0
        arrivals.append(start + burst_index * burst_gap + offset)
    return sorted(arrivals)


def trace_arrivals(
    trace: Iterable[float],
    start: float = 0.0,
    time_scale: float = 1.0,
) -> List[float]:
    """Replay a recorded submission trace as simulator arrival times.

    ``trace`` holds raw timestamps in ascending submission order and any unit
    (e.g. epoch seconds from a production job log).  They are rebased so the
    earliest lands at ``start``, and the gaps are multiplied by ``time_scale``
    to convert the trace's unit into simulator CX-time units (or to compress /
    stretch the workload).

    An empty trace, non-finite timestamps, or out-of-order timestamps raise
    ``ValueError``: a recorded trace with those properties is almost always a
    parsing bug upstream, and silently sorting (the old behavior) would hide
    it and replay a workload that never happened.
    """
    if not math.isfinite(time_scale) or time_scale <= 0:
        raise ValueError("time_scale must be positive and finite")
    times = [_arrival_float(timestamp) for timestamp in trace]
    if not times:
        raise ValueError("trace is empty: nothing to replay")
    for index, timestamp in enumerate(times):
        if not math.isfinite(timestamp):
            raise ValueError(
                f"trace timestamp #{index} is not finite: {timestamp!r}"
            )
        if index > 0 and timestamp < times[index - 1]:
            raise ValueError(
                f"trace timestamps are not sorted: entry #{index} "
                f"({timestamp}) precedes entry #{index - 1} ({times[index - 1]}); "
                "sort the trace explicitly if the recording order is unreliable"
            )
    first = times[0]
    return [start + (timestamp - first) * time_scale for timestamp in times]
