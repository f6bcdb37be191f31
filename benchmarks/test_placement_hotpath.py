"""E12 -- placement fast path: cold vs. warm attempts and a busy-cloud replay.

This benchmark pins the two claims of the incremental-placement fast path
(PR 4; see docs/architecture.md, "Placement fast path"):

1. **Warm attempts are cheap.**  A ``CloudQCPlacement.place`` call against an
   unchanged cloud with a shared :class:`~repro.placement.PlacementContext`
   serves its interaction graph, partitions, communities and QPU sets from
   version-keyed caches -- and returns the bit-identical placement.

2. **Busy-cloud replays are placement-dominated no more.**  The replay's
   workload alternates *anchor* jobs (51 qubits, spanning all six QPUs for a
   long stretch) with bursts of *filler* jobs (9 qubits).  While an anchor
   runs, the cloud's free capacity is fragmented dust -- 9 qubits spread so
   that every (imbalance, num_parts) candidate of a filler attempt fails --
   so each filler keeps failing until the anchor completes.  Without the fast
   path, every arrival re-attempts every pending filler from scratch
   (O(burst^2) full pipeline runs per cycle at one frozen resource version);
   with it, re-attempts whose failure signature is unchanged are skipped.
   Both modes are bit-identical under a fixed seed, which this benchmark and
   the regression tests assert.

Scale constants are at acceptance scale already (the 5000-job busy-cloud
replay); ``scripts/bench_report.py`` reuses the same trace builder at a
reduced cycle count by default for CI smoke runs (``--full`` restores this
file's acceptance scale).

The global job counter is realigned between the two replay legs: network
schedulers break ties on job-id strings, so comparing two in-process runs
requires both to mint the same ids.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud import job as job_module
from repro.circuits.library import get_circuit
from repro.multitenant import MultiTenantSimulator, fifo_batch_manager
from repro.placement import CloudQCPlacement, PlacementContext
from repro.scheduling import CloudQCScheduler
from repro.sim import DEFAULT_LATENCY, local_execution_time

NUM_QPUS = 6
QUBITS_PER_QPU = 10
ANCHOR = "ghz_n51"
FILLER = "ghz_n9"
#: Cycles x (1 anchor + FILLERS_PER_CYCLE fillers) = the 5015-job replay.
CYCLES = 295
FILLERS_PER_CYCLE = 16
SIM_SEED = 1
#: Trimmed Algorithm 1 search grid: keeps one failed attempt ~3 ms so the
#: from-scratch baseline leg of the A/B finishes in CI-tolerable time.
PLACEMENT_KWARGS = dict(imbalance_factors=(0.05, 0.30), max_extra_parts=2)
MIN_REPLAY_SPEEDUP = 5.0
MIN_WARM_SPEEDUP = 3.0


def make_cloud() -> QuantumCloud:
    return QuantumCloud(
        CloudTopology.line(NUM_QPUS),
        computing_qubits_per_qpu=QUBITS_PER_QPU,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )


def build_busy_trace(cycles: int, fillers_per_cycle: int):
    """Anchor+burst cycles: every filler burst hits a fragmented, frozen cloud."""
    anchor = get_circuit(ANCHOR)
    filler = get_circuit(FILLER)
    anchor_span = local_execution_time(anchor, DEFAULT_LATENCY)
    burst_end = 0.8 * anchor_span
    drain = 6 * local_execution_time(filler, DEFAULT_LATENCY) * (
        fillers_per_cycle / NUM_QPUS + 2
    )
    circuits, arrivals = [], []
    t = 0.0
    for _ in range(cycles):
        circuits.append(anchor)
        arrivals.append(t)
        for index in range(fillers_per_cycle):
            circuits.append(filler)
            arrivals.append(t + 1.0 + burst_end * index / fillers_per_cycle)
        t += anchor_span + drain
    return circuits, arrivals


def run_replay(incremental: bool, cycles: int, fillers_per_cycle: int):
    # Align job ids across legs (scheduler tiebreaks read the id strings).
    job_module._job_counter = itertools.count()
    simulator = MultiTenantSimulator(
        make_cloud(),
        placement_algorithm=CloudQCPlacement(**PLACEMENT_KWARGS),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        incremental_placement=incremental,
    )
    circuits, arrivals = build_busy_trace(cycles, fillers_per_cycle)
    start = time.perf_counter()
    results = simulator.run_stream(circuits, arrivals, seed=SIM_SEED)
    return results, time.perf_counter() - start


def result_key(result):
    return (
        result.job_id,
        result.circuit_name,
        result.arrival_time,
        result.placement_time,
        result.completion_time,
        result.num_remote_operations,
        result.num_qpus_used,
        result.outcome,
    )


@pytest.mark.paper_artifact("placement-hotpath")
def test_warm_attempt_cost(benchmark):
    """A warm place() against an unchanged cloud is far cheaper and identical."""
    cloud = make_cloud()
    circuit = get_circuit("ghz_n24")  # needs 3+ QPUs: the full pipeline runs
    algorithm = CloudQCPlacement(**PLACEMENT_KWARGS)
    context = PlacementContext()

    rounds = 25
    start = time.perf_counter()
    cold = [
        CloudQCPlacement(**PLACEMENT_KWARGS).place(circuit, cloud, seed=11)
        for _ in range(rounds)
    ]
    cold_time = time.perf_counter() - start

    warm_reference = algorithm.place(circuit, cloud, seed=11, context=context)
    start = time.perf_counter()
    warm = [
        algorithm.place(circuit, cloud, seed=11, context=context)
        for _ in range(rounds)
    ]
    warm_time = time.perf_counter() - start

    for placement in cold + warm:
        assert placement.mapping == warm_reference.mapping
        assert placement.score == warm_reference.score
    speedup = cold_time / warm_time
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm attempts only {speedup:.1f}x faster than cold"
    )
    print(
        f"\nwarm attempt cost: cold={1e3 * cold_time / rounds:.2f}ms "
        f"warm={1e3 * warm_time / rounds:.3f}ms speedup={speedup:.0f}x "
        f"hit-rate={context.hit_rate:.2f}"
    )
    benchmark.pedantic(
        lambda: algorithm.place(circuit, cloud, seed=11, context=context),
        rounds=10,
        iterations=5,
    )


@pytest.mark.paper_artifact("placement-hotpath")
def test_busy_cloud_replay_speedup(benchmark):
    """The 5015-job busy-cloud replay is >=5x faster and bit-identical."""
    def replay():
        return run_replay(True, CYCLES, FILLERS_PER_CYCLE)

    incremental_results, incremental_time = benchmark.pedantic(
        replay, rounds=1, iterations=1
    )
    baseline_results, baseline_time = run_replay(False, CYCLES, FILLERS_PER_CYCLE)

    num_jobs = CYCLES * (1 + FILLERS_PER_CYCLE)
    assert len(incremental_results) == num_jobs
    assert [result_key(r) for r in incremental_results] == [
        result_key(r) for r in baseline_results
    ], "fast-path replay must be bit-identical to the from-scratch replay"
    assert all(r.completed for r in incremental_results)

    speedup = baseline_time / incremental_time
    print(
        f"\nbusy-cloud replay ({num_jobs} jobs): "
        f"incremental={incremental_time:.1f}s from-scratch={baseline_time:.1f}s "
        f"speedup={speedup:.1f}x"
    )
    assert speedup >= MIN_REPLAY_SPEEDUP, (
        f"placement-dominated replay only {speedup:.1f}x faster "
        f"({baseline_time:.1f}s -> {incremental_time:.1f}s)"
    )
