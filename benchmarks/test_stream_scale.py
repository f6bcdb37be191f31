"""E11 -- large-scale trace replay: 5000 jobs under four admission policies.

This is the scaling benchmark for the streaming simulator: a synthetic
cluster trace (:func:`~repro.multitenant.generate_cluster_trace` -- ~2000
tenants, heavy-tailed job sizes, diurnal rate modulation) is replayed through
``run_stream`` once per admission policy.  The trace deliberately overloads
the cloud around its diurnal peaks, so the four policies separate cleanly:

* ``AdmitAll`` completes every job but the pending queue grows into the
  hundreds and the p99 queueing delay into the thousands of CX units;
* ``QueueDepthThreshold`` sheds load until the queue never exceeds its bound;
* ``TokenBucket`` smooths admissions to its sustained rate;
* ``QueueingDeadline`` drops whatever queued longer than its bound, capping
  the worst-case delay a tenant can experience.

Placement uses the paper's random baseline rather than CloudQC: placement
quality is not under test here, and the CloudQC community-detection pass on a
busy cloud costs milliseconds per attempt, which at a 5000-job scale would
time the harness out.  The saturated-queue fast path in
``cluster_sim._place`` (skip the pass when no pending job can fit) is what
keeps the AdmitAll replay -- whose queue peaks above 600 jobs -- tractable.

Scale constants are at paper scale already (the acceptance workload is the
5000-job trace); SMOKE_NUM_JOBS is the reduced trace used by CI smoke runs
of the example script, kept here for reference.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    AdmitAll,
    JobOutcome,
    MultiTenantSimulator,
    QueueDepthThreshold,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    TokenBucket,
    fifo_batch_manager,
    generate_cluster_trace,
    max_queue_depth,
    queue_depth_timeseries,
)
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler

NUM_JOBS = 5000
NUM_TENANTS = 2000
BASE_RATE = 0.25
DIURNAL_AMPLITUDE = 0.6
DIURNAL_PERIOD = 5000.0
TRACE_SEED = 3
SIM_SEED = 1
#: Reduced scale used by the CI smoke run of examples/stream_admission.py.
SMOKE_NUM_JOBS = 40


def netted_depths(events):
    """The (time, depth) steps an event stream records: the last depth of
    each instant, where it differs from the previous instant's."""
    instants = []
    for record in map(json.loads, events.splitlines()):
        if "depth" not in record:
            continue
        if instants and instants[-1][0] == record["t"]:
            instants[-1] = (record["t"], record["depth"])
        else:
            instants.append((record["t"], record["depth"]))
    steps, depth = [], 0
    for time, after in instants:
        if after != depth:
            steps.append((time, after))
            depth = after
    return steps

QUEUE_BOUND = 25
TOKEN_RATE = 0.22
TOKEN_CAPACITY = 25.0
DEADLINE = 300.0

#: Single-QPU-sized circuits: the pool keeps placement cheap so the harness
#: measures queueing/admission behavior, not placement algorithm cost.
POOL = ["ghz_n4", "ghz_n6", "ghz_n8", "ghz_n12", "ghz_n16"]


@pytest.fixture(scope="module")
def trace():
    return generate_cluster_trace(
        NUM_JOBS,
        num_tenants=NUM_TENANTS,
        base_rate=BASE_RATE,
        diurnal_amplitude=DIURNAL_AMPLITUDE,
        diurnal_period=DIURNAL_PERIOD,
        seed=TRACE_SEED,
        names=POOL,
    )


def make_simulator(policy):
    topology = CloudTopology.line(4)
    cloud = QuantumCloud(
        topology,
        computing_qubits_per_qpu=16,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )
    return MultiTenantSimulator(
        cloud,
        placement_algorithm=RandomPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=policy,
    )


@pytest.mark.paper_artifact("stream-scale")
def test_trace_replay_under_all_admission_policies(benchmark, trace):
    """The 5000-job trace replays under every policy; each shows its contract."""
    policies = [
        AdmitAll(),
        QueueDepthThreshold(QUEUE_BOUND),
        TokenBucket(rate=TOKEN_RATE, capacity=TOKEN_CAPACITY),
        QueueingDeadline(DEADLINE),
    ]

    def run():
        outcomes = {}
        for policy in policies:
            simulator = make_simulator(policy)
            outcomes[policy.name] = simulator.run_stream(
                trace.circuits, trace.arrival_times, seed=SIM_SEED
            )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    # Every policy accounts for every submitted job exactly once.
    for name, results in outcomes.items():
        assert len(results) == NUM_JOBS, name

    # AdmitAll: no back-pressure, everything completes.
    admit_all = StreamSummary.from_results(outcomes["admit-all"])
    assert admit_all.completed == NUM_JOBS
    assert admit_all.rejection_rate == 0.0

    # Queue-depth threshold: the pending queue never exceeds the bound, and
    # shedding keeps the tail delay far below the uncontrolled run's.
    shed = StreamSummary.from_results(outcomes["queue-depth"])
    assert max_queue_depth(outcomes["queue-depth"]) <= QUEUE_BOUND
    assert shed.rejected > 0 and shed.expired == 0
    assert shed.queueing.p99 < admit_all.queueing.p99 / 5

    # Token bucket: overload is rejected at arrival, never expired later.
    bucket = StreamSummary.from_results(outcomes["token-bucket"])
    assert bucket.rejected > 0 and bucket.expired == 0
    assert bucket.completed + bucket.rejected == NUM_JOBS

    # Deadline: nothing is rejected at arrival, but no admitted job ever
    # waits beyond the bound -- completions placed within it, drops at it.
    deadline = StreamSummary.from_results(outcomes["deadline"])
    assert deadline.rejected == 0 and deadline.expired > 0
    for result in outcomes["deadline"]:
        if result.completed:
            assert result.queueing_delay <= DEADLINE + 1e-9
        else:
            assert result.outcome == JobOutcome.EXPIRED
            assert result.queueing_delay == pytest.approx(DEADLINE)

    for name, results in outcomes.items():
        summary = StreamSummary.from_results(results)
        print(
            f"\n{name:>12}: completed={summary.completed} "
            f"rejected={summary.rejected} expired={summary.expired} "
            f"p50/p95/p99 delay={summary.queueing.p50:.0f}/"
            f"{summary.queueing.p95:.0f}/{summary.queueing.p99:.0f} "
            f"max queue={summary.max_queue_depth}"
        )


@pytest.mark.paper_artifact("stream-scale")
def test_telemetry_sink_matches_exact_summary_at_scale(trace):
    """One 5000-job replay, retained results AND an attached sink: the
    sketch-backed summary agrees with the exact one (counters exactly,
    percentiles within the GK rank bound) and the depths the event stream
    records match the reconstruction (no preemption here, so both are
    exact)."""
    import numpy as np

    events = io.StringIO()
    sink = Telemetry(events=events)
    simulator = make_simulator(QueueingDeadline(DEADLINE))
    results = simulator.run_stream(
        trace.circuits, trace.arrival_times, seed=SIM_SEED, telemetry=sink
    )
    exact = StreamSummary.from_results(results)
    sketched = StreamSummary.from_telemetry(sink)

    assert sketched.total == exact.total == NUM_JOBS
    assert sketched.completed == exact.completed
    assert sketched.expired == exact.expired
    assert sketched.rejection_rate == pytest.approx(exact.rejection_rate)
    assert sketched.queueing.mean == pytest.approx(exact.queueing.mean)
    assert sketched.max_queue_depth == exact.max_queue_depth
    assert netted_depths(events.getvalue()) == queue_depth_timeseries(results)

    # Percentile estimates stay within the documented (2 eps n + 1)/n
    # rank-error bound of the exact distribution.
    delays = np.sort(
        [r.queueing_delay for r in results if not math.isnan(r.queueing_delay)]
    )
    n = len(delays)
    bound = (2 * sink.queueing_delay.epsilon * n + 1) / n
    for p, estimate in ((50, sketched.queueing.p50), (95, sketched.queueing.p95),
                        (99, sketched.queueing.p99)):
        lo = np.searchsorted(delays, estimate, side="left")
        hi = np.searchsorted(delays, estimate, side="right")
        target = p / 100 * n
        err = 0.0 if lo <= target <= hi else min(abs(lo - target), abs(hi - target)) / n
        assert err <= bound, f"p{p} rank error {err} > {bound}"


@pytest.mark.paper_artifact("stream-scale")
def test_dropped_jobs_report_nan_times(trace):
    """Dropped jobs carry NaN placement/completion and a real drop time."""
    simulator = make_simulator(QueueDepthThreshold(1))
    results = simulator.run_stream(
        trace.circuits[:200], trace.arrival_times[:200], seed=SIM_SEED
    )
    rejected = [r for r in results if r.outcome == JobOutcome.REJECTED]
    assert rejected, "an overloaded depth-1 queue must reject something"
    for result in rejected:
        assert math.isnan(result.placement_time)
        assert math.isnan(result.completion_time)
        assert result.dropped_time == result.arrival_time
