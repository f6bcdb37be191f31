"""E14 -- bounded-memory telemetry: 100k-job replay under a hard memory cap.

This benchmark pins the claim of the telemetry subsystem (PR 6; see
docs/architecture.md, "Telemetry & observability"): a stream replay with a
:class:`~repro.multitenant.Telemetry` sink and ``keep_results=False`` holds
peak memory *independent of the number of jobs* -- the per-job
``TenantJobResult`` list is never materialized and the controller's per-job
state is pruned as each job reaches a terminal outcome -- while the
sketch-backed percentiles stay within the GK rank-error bound of the exact
values computed from a retained run.

``scripts/bench_report.py --bench 6`` reuses this module's builders at the
full 100k-job acceptance scale and emits the numbers as ``BENCH_6.json``;
the pytest tests here run a reduced trace so tier-1 collection stays fast.

The trace is the E11 cluster trace (heavy-tailed sizes, diurnal overload,
single-QPU circuit pool so the harness measures stream accounting rather
than placement cost) replayed under a queueing-deadline admission policy,
which exercises the completed *and* expired terminal paths at scale.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud import job as job_module
from repro.multitenant import (
    MultiTenantSimulator,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    fifo_batch_manager,
    generate_cluster_trace,
)
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler

#: Acceptance scale: the BENCH_6 artifact replays this many jobs.
NUM_JOBS = 100_000
#: Reduced scale for the tier-1 pytest runs of this module.
TEST_NUM_JOBS = 8_000
NUM_TENANTS = 2000
BASE_RATE = 0.25
DIURNAL_AMPLITUDE = 0.6
DIURNAL_PERIOD = 5000.0
TRACE_SEED = 3
SIM_SEED = 1
DEADLINE = 300.0
EPSILON = 0.005

#: Peak-tracemalloc budget for the bounded (keep_results=False) leg of the
#: full 100k-job replay, enforced by CI via bench_report.py --bench 6.  The
#: ~81 MiB peak in BENCH_6.json was measured when in-memory circuits were
#: still submitted up front (~0.8 KiB/job, common to both legs); jobs are
#: now minted at their arrival (see docs/architecture.md "Telemetry &
#: observability").  Telemetry state ends the run under 1 MiB.  128 MiB
#: leaves headroom for allocator noise; the contrast the benchmark pins is
#: the end-of-run ratio (retained leg ends ~29x heavier than the bounded
#: one).
MEMORY_BUDGET_MB = 128.0

#: Single-QPU-sized circuits (see benchmarks/test_stream_scale.py).
POOL = ["ghz_n4", "ghz_n6", "ghz_n8", "ghz_n12", "ghz_n16"]


def make_cloud() -> QuantumCloud:
    return QuantumCloud(
        CloudTopology.line(4),
        computing_qubits_per_qpu=16,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )


def make_trace(num_jobs: int):
    return generate_cluster_trace(
        num_jobs,
        num_tenants=NUM_TENANTS,
        base_rate=BASE_RATE,
        diurnal_amplitude=DIURNAL_AMPLITUDE,
        diurnal_period=DIURNAL_PERIOD,
        seed=TRACE_SEED,
        names=POOL,
    )


def run_replay(trace, telemetry=None, keep_results=True):
    """One deadline-admission replay; returns (results, seconds)."""
    # Align job ids across legs (scheduler tiebreaks read the id strings).
    import itertools

    job_module._job_counter = itertools.count()
    simulator = MultiTenantSimulator(
        make_cloud(),
        placement_algorithm=RandomPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(DEADLINE),
    )
    start = time.perf_counter()
    results = simulator.run_stream(
        trace.circuits,
        trace.arrival_times,
        seed=SIM_SEED,
        telemetry=telemetry,
        keep_results=keep_results,
        tenants=trace.tenant_ids,
    )
    return results, time.perf_counter() - start


def rank_error(sorted_values: np.ndarray, estimate: float, p: float) -> float:
    """Relative rank distance of ``estimate`` from the exact percentile."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    lo = np.searchsorted(sorted_values, estimate, side="left")
    hi = np.searchsorted(sorted_values, estimate, side="right")
    target = p / 100.0 * n
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


def _traced(fn):
    """Run ``fn`` under tracemalloc; returns (result, end_bytes, peak_bytes).

    ``end_bytes`` is the memory still held when the replay finishes -- the
    number that distinguishes the bounded mode (fixed-size sink) from the
    retained mode (O(jobs) result list + controller state).  ``peak_bytes``
    also counts what both modes hold regardless of ``keep_results``: the
    in-memory circuit and arrival-time lists and their sorted order index.
    Jobs are minted at their arrival, not submitted up front; the ~81 MiB
    peak in BENCH_6.json predates that and includes ~0.8 KiB/job of
    upfront Job/arrival-event submission.
    """
    tracemalloc.start()
    try:
        result = fn()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, end, peak


def build_report(num_jobs: int = NUM_JOBS, epsilon: float = EPSILON) -> dict:
    """The BENCH_6 measurement: bounded leg vs retained leg, same trace.

    The bounded leg runs first so its tracemalloc peak reflects only its
    own allocations; the retained leg then provides the exact percentiles
    the sketch estimates are checked against.
    """
    trace = make_trace(num_jobs)

    sink = Telemetry(epsilon=epsilon)
    (empty, bounded_seconds), bounded_end, bounded_peak = _traced(
        lambda: run_replay(trace, telemetry=sink, keep_results=False)
    )
    assert empty == []

    (results, retained_seconds), retained_end, retained_peak = _traced(
        lambda: run_replay(trace)
    )

    exact = StreamSummary.from_results(results)
    sketched = StreamSummary.from_telemetry(sink)

    delays = np.sort(
        [r.queueing_delay for r in results if not math.isnan(r.queueing_delay)]
    )
    jcts = np.sort([r.job_completion_time for r in results if r.completed])

    def leg(sorted_values, sketch):
        n = len(sorted_values)
        bound = (2.0 * epsilon * n + 1.0) / n if n else 1.0
        errors = {
            f"p{p}": rank_error(sorted_values, sketch.percentile(p), p)
            for p in (50, 95, 99)
        }
        return {
            "count": int(n),
            "epsilon": epsilon,
            "rank_error_bound": bound,
            "rank_errors": errors,
            "estimates": {f"p{p}": sketch.percentile(p) for p in (50, 95, 99)},
            "exact": {
                f"p{p}": float(np.percentile(sorted_values, p)) if n else 0.0
                for p in (50, 95, 99)
            },
            "within_bound": all(e <= bound for e in errors.values()),
            "sketch_tuples": sketch.size,
        }

    counters_match = (
        sketched.total == exact.total
        and sketched.completed == exact.completed
        and sketched.expired == exact.expired
        and sketched.rejected == exact.rejected
        and sketched.max_queue_depth == exact.max_queue_depth
    )
    queueing_leg = leg(delays, sink.queueing_delay)
    jct_leg = leg(jcts, sink.jct)
    return {
        "num_jobs": num_jobs,
        "queueing_deadline": DEADLINE,
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "bounded_leg": {
            "keep_results": False,
            "seconds": bounded_seconds,
            "end_tracemalloc_mb": bounded_end / 2**20,
            "peak_tracemalloc_mb": bounded_peak / 2**20,
            "within_budget": bounded_peak / 2**20 <= MEMORY_BUDGET_MB,
        },
        "retained_leg": {
            "keep_results": True,
            "seconds": retained_seconds,
            "end_tracemalloc_mb": retained_end / 2**20,
            "peak_tracemalloc_mb": retained_peak / 2**20,
        },
        "retained_end_over_bounded_end": retained_end / bounded_end,
        "counters_match": counters_match,
        "completed": exact.completed,
        "expired": exact.expired,
        "queueing_delay": queueing_leg,
        "jct": jct_leg,
        "ok": (
            counters_match
            and bounded_peak / 2**20 <= MEMORY_BUDGET_MB
            and queueing_leg["within_bound"]
            and jct_leg["within_bound"]
        ),
    }


# ----------------------------------------------------------------------
# Tier-1 tests (reduced scale)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def report():
    return build_report(num_jobs=TEST_NUM_JOBS)


@pytest.mark.paper_artifact("stream-telemetry")
def test_bounded_leg_summary_matches_exact(report):
    assert report["counters_match"]
    assert report["completed"] + report["expired"] == report["num_jobs"]


@pytest.mark.paper_artifact("stream-telemetry")
def test_sketch_percentiles_within_rank_bound(report):
    for key in ("queueing_delay", "jct"):
        leg = report[key]
        assert leg["within_bound"], leg
        # GK memory is logarithmic in n -- a few hundred tuples, not O(jobs).
        assert leg["sketch_tuples"] < 2_000


@pytest.mark.paper_artifact("stream-telemetry")
def test_bounded_leg_uses_less_memory_than_retained(report):
    # The peak is common to both modes (the in-memory inputs; jobs are
    # minted at their arrival); what keep_results=False eliminates is the
    # O(jobs) state still held when the replay finishes -- the result list
    # plus the controller's per-job maps.  At this reduced scale the
    # retained run already ends several times heavier than the fixed-size
    # sink.
    assert report["retained_end_over_bounded_end"] > 3.0
    assert report["bounded_leg"]["peak_tracemalloc_mb"] <= MEMORY_BUDGET_MB
