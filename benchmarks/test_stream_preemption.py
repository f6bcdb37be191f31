"""E13 -- preemption at scale: deadline-rescue on the overloaded 5015-job trace.

This benchmark pins the two claims of the preemption subsystem (PR 5; see
docs/architecture.md, "Preemption & migration"):

1. **Deadline-rescue saves overloaded streams.**  The trace reuses the PR-4
   anchor/burst shape: every cycle one 51-qubit anchor pins 51 of the
   cloud's 60 computing qubits for a long stretch while 16 nine-qubit
   fillers arrive behind it.  With a queueing-deadline admission policy and
   the paper's irrevocable placements (``NeverPreempt``), nearly every
   filler expires; :class:`~repro.multitenant.DeadlineRescue` evicts the
   anchor shortly before the first filler's deadline, the fillers run, and
   the anchor resumes with its banked work intact (``resume`` work-loss).
   The expired-job count collapses and the drop-aware p99 JCT -- expired
   jobs count as an unbounded completion time -- goes from unbounded to
   finite.

2. **The machinery is free when disabled.**  ``NeverPreempt`` short-circuits
   the preemption stage to one branch per decision point, so the default
   configuration replays the trace at PR-4 speed (bit-identity is pinned by
   the golden/A-B tests in tests/test_preemption.py; here we bound the wall
   -time overhead).

Scale constants are at acceptance scale already (295 cycles = 5015 jobs);
``scripts/bench_report.py --bench 5`` reuses this module's builders at a
reduced cycle count by default for CI smoke runs (``--full`` restores this
file's scale) and emits the numbers as ``BENCH_5.json``.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud import job as job_module
from repro.multitenant import (
    DeadlineRescue,
    MultiTenantSimulator,
    NeverPreempt,
    PreemptionPolicy,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    drop_aware_jct_percentile,
    fifo_batch_manager,
    generate_anchor_burst_trace,
    max_queue_depth,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler

NUM_QPUS = 6
QUBITS_PER_QPU = 10
#: Cycles x (1 anchor + FILLERS_PER_CYCLE fillers) = the 5015-job trace.
CYCLES = 295
FILLERS_PER_CYCLE = 16
SIM_SEED = 1
DEADLINE = 30.0
RESCUE_HORIZON = 5.0
#: Trimmed Algorithm 1 search grid (same as the hot-path benchmark): keeps a
#: failed attempt cheap so the replay measures scheduling, not placement.
PLACEMENT_KWARGS = dict(imbalance_factors=(0.05, 0.30), max_extra_parts=2)


def make_cloud() -> QuantumCloud:
    return QuantumCloud(
        CloudTopology.line(NUM_QPUS),
        computing_qubits_per_qpu=QUBITS_PER_QPU,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )


def run_replay(
    policy,
    cycles: int,
    fillers_per_cycle: int,
    telemetry=None,
    keep_results=True,
):
    """One full trace replay under the given preemption policy."""
    # Align job ids across legs (scheduler tiebreaks read the id strings).
    import itertools

    job_module._job_counter = itertools.count()
    simulator = MultiTenantSimulator(
        make_cloud(),
        placement_algorithm=CloudQCPlacement(**PLACEMENT_KWARGS),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(max_delay=DEADLINE),
        preemption_policy=policy,
    )
    trace = generate_anchor_burst_trace(
        cycles, fillers_per_cycle, num_qpus=NUM_QPUS
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


@pytest.mark.paper_artifact("stream-preemption")
def test_deadline_rescue_cuts_expired_jobs_and_tail_jct(benchmark):
    """Rescue turns an expiry-dominated overload into a completing stream."""

    def replay():
        return run_replay(DeadlineRescue(horizon=RESCUE_HORIZON), CYCLES,
                          FILLERS_PER_CYCLE)

    rescue_results, rescue_time = benchmark.pedantic(
        replay, rounds=1, iterations=1
    )
    never_results, never_time = run_replay(
        NeverPreempt(), CYCLES, FILLERS_PER_CYCLE
    )

    num_jobs = CYCLES * (1 + FILLERS_PER_CYCLE)
    assert len(rescue_results) == len(never_results) == num_jobs

    never = StreamSummary.from_results(never_results)
    rescue = StreamSummary.from_results(rescue_results)
    never_p99 = drop_aware_jct_percentile(never_results, 99)
    rescue_p99 = drop_aware_jct_percentile(rescue_results, 99)

    print(
        f"\nnever-preempt:   completed={never.completed} "
        f"expired={never.expired} p99*={never_p99} ({never_time:.1f}s)"
    )
    print(
        f"deadline-rescue: completed={rescue.completed} "
        f"expired={rescue.expired} evictions="
        f"{rescue.preemption.preemption_events} "
        f"p99*={rescue_p99:.1f} ({rescue_time:.1f}s)"
    )

    # The paper's irrevocable placements let the anchors starve the fillers:
    # the overload expires most of the stream and the drop-aware tail JCT is
    # unbounded.  Rescue must reclaim the vast majority of those drops and
    # bring the tail back to a finite number.
    assert never.expired > num_jobs // 2
    assert rescue.expired < never.expired // 10
    assert never_p99 == math.inf
    assert math.isfinite(rescue_p99)
    assert rescue.preemption.preemption_events > 0
    # Resumed anchors must not redo banked work under the resume model.
    assert rescue.preemption.wasted_time == 0.0
    # Everything that completed did so within the admission deadline's wait.
    for result in rescue_results:
        if result.completed and not math.isnan(result.placement_time):
            assert result.placement_time - result.arrival_time <= DEADLINE + 1e-9


@pytest.mark.paper_artifact("stream-preemption")
def test_bounded_memory_replay_matches_retained_summary():
    """A ``keep_results=False`` rescue replay (results discarded as they
    finish) reports the same counters as the retained run, and the online
    maximum queue depth sees the requeued victims the result reconstruction
    misses."""
    cycles = 40  # preemption-heavy but cheap enough for tier-1 collection
    sink = Telemetry()
    empty, _ = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON),
        cycles,
        FILLERS_PER_CYCLE,
        telemetry=sink,
        keep_results=False,
    )
    assert empty == []
    retained, _ = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON), cycles, FILLERS_PER_CYCLE
    )
    exact = StreamSummary.from_results(retained)
    sketched = StreamSummary.from_telemetry(sink)
    assert sketched.total == exact.total == cycles * (1 + FILLERS_PER_CYCLE)
    assert sketched.completed == exact.completed
    assert sketched.expired == exact.expired
    assert sketched.preemption == exact.preemption
    assert sketched.queueing.mean == pytest.approx(exact.queueing.mean)
    assert sketched.completion.mean == pytest.approx(exact.completion.mean)
    # Requeued rescue victims re-enter the pending queue; the per-job
    # results only record first queue stays, so the online max is deeper.
    assert exact.preemption.preemption_events > 0
    assert sink.max_queue_depth >= max_queue_depth(retained)
    # Drop-aware percentiles agree on finiteness at both ends.
    assert math.isfinite(sink.drop_aware_jct_percentile(50)) == math.isfinite(
        drop_aware_jct_percentile(retained, 50)
    )


class _EnabledNoOp(PreemptionPolicy):
    """Enabled hook that never acts: prices per-tick view construction."""

    name = "enabled-noop"

    def decide(self, view):
        return []


@pytest.mark.paper_artifact("stream-preemption")
def test_enabled_hook_overhead_is_bounded(benchmark):
    """Even an *enabled* no-op policy — which builds the full decision view
    at every tick — stays within 2x of the disabled replay; the disabled
    path itself is one branch per tick, pinned structurally by
    tests/test_preemption.py (a timing A/B against the same binary cannot
    detect disabled-path regressions, so no such assertion is made here).
    """
    cycles = 60  # enough signal without doubling the suite's runtime

    def replay():
        return run_replay(NeverPreempt(), cycles, FILLERS_PER_CYCLE)

    (_, disabled_time) = benchmark.pedantic(replay, rounds=1, iterations=1)
    (_, noop_time) = run_replay(_EnabledNoOp(), cycles, FILLERS_PER_CYCLE)
    ratio = noop_time / disabled_time
    print(f"\nreplay: disabled={disabled_time:.2f}s enabled-noop="
          f"{noop_time:.2f}s (ratio {ratio:.2f})")
    assert ratio < 2.0
