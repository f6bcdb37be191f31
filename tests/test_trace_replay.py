"""Golden A/B tests: lazy trace replay is bit-identical to upfront submission.

The tentpole guarantee of the trace-ingestion layer: feeding
``run_stream(trace=...)`` lazily through the pending-arrival cursor produces
exactly the results of the equivalent upfront ``run_stream(circuits,
arrival_times)`` -- across all four network schedulers, in default and
preemption-active (deadline-rescue) configurations, with and without a
``Telemetry`` sink, from in-memory records and from on-disk jsonl files.
Also pins the ``run_stream``/``run_batch`` input-validation bugfix.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math

import numpy as np
import pytest

from repro.circuits.library import ghz, ising
from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud import job as job_module
from repro.multitenant import (
    ClusterSimulationError,
    DeadlineRescue,
    MultiTenantSimulator,
    QueueingDeadline,
    Telemetry,
    TraceReader,
    TraceRecord,
    fifo_batch_manager,
    generate_anchor_burst_trace,
    generate_cluster_trace,
)
from repro.placement import CloudQCPlacement, RandomPlacement
from repro.scheduling import (
    AverageScheduler,
    CloudQCScheduler,
    GreedyScheduler,
    RandomScheduler,
)

SCHEDULERS = [
    CloudQCScheduler,
    GreedyScheduler,
    AverageScheduler,
    RandomScheduler,
]

GOLDEN_CIRCUITS = ["ghz_n24", "ising_n34", "ghz_n16", "ghz_n24"]
GOLDEN_ARRIVALS = [0.0, 11.0, 25.0, 40.0]
GOLDEN_TENANTS = ["a", "b", "a", "c"]


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
        result.num_preemptions,
        result.num_migrations,
        result.wasted_time,
        result.wasted_ops,
    )


def small_cloud():
    return QuantumCloud(
        CloudTopology.line(4),
        computing_qubits_per_qpu=16,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.9,
    )


def make_simulator(scheduler_cls, admission_policy=None, preemption_policy=None):
    # Realign the process-global job counter so comparable runs mint
    # identical job ids (scheduler tiebreaks read the id strings).
    job_module._job_counter = itertools.count()
    return MultiTenantSimulator(
        small_cloud(),
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=scheduler_cls(),
        batch_manager=fifo_batch_manager(),
        admission_policy=admission_policy,
        preemption_policy=preemption_policy,
    )


def golden_records():
    return [
        TraceRecord(arrival_time=arrival, circuit=name, tenant=tenant)
        for arrival, name, tenant in zip(
            GOLDEN_ARRIVALS, GOLDEN_CIRCUITS, GOLDEN_TENANTS
        )
    ]


def run_upfront(scheduler_cls, telemetry=None, keep_results=True, **sim_kwargs):
    simulator = make_simulator(scheduler_cls, **sim_kwargs)
    return simulator.run_stream(
        [ghz(24), ising(34), ghz(16), ghz(24)],
        GOLDEN_ARRIVALS,
        seed=7,
        telemetry=telemetry,
        keep_results=keep_results,
        tenants=GOLDEN_TENANTS,
    )


def run_lazy(scheduler_cls, trace=None, telemetry=None, keep_results=True, **sim_kwargs):
    simulator = make_simulator(scheduler_cls, **sim_kwargs)
    return simulator.run_stream(
        trace=golden_records() if trace is None else trace,
        seed=7,
        telemetry=telemetry,
        keep_results=keep_results,
    )


# ----------------------------------------------------------------------
# The tentpole: lazy == upfront, bit for bit
# ----------------------------------------------------------------------
class TestStreamingEquivalence:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_default_config(self, scheduler_cls):
        upfront = run_upfront(scheduler_cls)
        lazy = run_lazy(scheduler_cls)
        assert [result_key(r) for r in upfront] == [result_key(r) for r in lazy]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_deadline_rescue_config(self, scheduler_cls):
        # Preemption-active: a queueing deadline plus DeadlineRescue, on the
        # anchor-burst overload trace that actually triggers evictions.
        trace = generate_anchor_burst_trace(cycles=4, fillers_per_cycle=6)
        kwargs = dict(
            admission_policy=QueueingDeadline(30.0),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )
        simulator = make_simulator(scheduler_cls, **kwargs)
        upfront = simulator.run_stream(
            trace.circuits, trace.arrival_times, seed=7, tenants=trace.tenant_ids
        )
        simulator = make_simulator(scheduler_cls, **kwargs)
        lazy = simulator.run_stream(trace=trace, seed=7)
        assert any(r.num_preemptions > 0 for r in upfront)  # the config bites
        assert [result_key(r) for r in upfront] == [result_key(r) for r in lazy]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_with_telemetry_sink_and_event_stream(self, scheduler_cls):
        upfront_events = io.StringIO()
        upfront = run_upfront(scheduler_cls, telemetry=Telemetry(events=upfront_events))
        lazy_events = io.StringIO()
        lazy = run_lazy(scheduler_cls, telemetry=Telemetry(events=lazy_events))
        assert [result_key(r) for r in upfront] == [result_key(r) for r in lazy]
        # The jsonl event streams -- arrivals, admissions, placements,
        # completions, tenants and all -- must match byte for byte.
        assert upfront_events.getvalue() == lazy_events.getvalue()

    def test_bounded_memory_mode_summaries_match(self):
        upfront_sink = Telemetry()
        run_upfront(CloudQCScheduler, telemetry=upfront_sink, keep_results=False)
        lazy_sink = Telemetry()
        assert run_lazy(CloudQCScheduler, telemetry=lazy_sink, keep_results=False) == []
        assert upfront_sink.summary() == lazy_sink.summary()

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_replay_from_disk(self, suffix, tmp_path):
        from repro.multitenant import write_trace

        # A path is read as jsonl whatever its suffix.
        path = tmp_path / f"golden.{suffix}"
        write_trace(path, golden_records())
        upfront = run_upfront(CloudQCScheduler)
        lazy = run_lazy(CloudQCScheduler, trace=str(path))
        assert [result_key(r) for r in upfront] == [result_key(r) for r in lazy]
        via_reader = run_lazy(CloudQCScheduler, trace=TraceReader(path))
        assert [result_key(r) for r in via_reader] == [result_key(r) for r in lazy]

    def test_replay_synthetic_cluster_trace(self):
        # A denser workload than the 4-job golden stream: 150 jobs with
        # queueing expiries in the mix, replayed through a ClusterTrace.
        trace = generate_cluster_trace(
            150, num_tenants=12, seed=5, names=["ghz_n4", "ghz_n8", "ghz_n16"]
        )
        kwargs = dict(admission_policy=QueueingDeadline(120.0))
        simulator = make_simulator(CloudQCScheduler, **kwargs)
        upfront = simulator.run_stream(
            trace.circuits, trace.arrival_times, seed=11, tenants=trace.tenant_ids
        )
        simulator = make_simulator(CloudQCScheduler, **kwargs)
        lazy = simulator.run_stream(trace=trace, seed=11)
        assert [result_key(r) for r in upfront] == [result_key(r) for r in lazy]

    def test_event_counts_match(self):
        # The cursor replaces n upfront arrival events with n cursor firings,
        # so a max_events budget that fits the upfront run fits the lazy run.
        simulator = make_simulator(CloudQCScheduler)
        upfront = simulator.run_stream(
            [ghz(24), ising(34), ghz(16), ghz(24)], GOLDEN_ARRIVALS, seed=7
        )
        budget = 10_000
        job_module._job_counter = itertools.count()
        tight = MultiTenantSimulator(
            small_cloud(),
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            max_events=budget,
        )
        lazy = tight.run_stream(trace=golden_records(), seed=7)
        assert [result_key(r) for r in upfront] == [result_key(r) for r in lazy]


# ----------------------------------------------------------------------
# Lazy-path input validation
# ----------------------------------------------------------------------
class TestLazyValidation:
    def test_trace_mutually_exclusive_with_circuits(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="mutually exclusive"):
            simulator.run_stream(
                [ghz(4)], [0.0], trace=golden_records()
            )

    def test_trace_mutually_exclusive_with_tenants(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="tenants"):
            simulator.run_stream(trace=golden_records(), tenants=["a"])

    def test_missing_both_forms(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="requires circuits"):
            simulator.run_stream()

    def test_keep_results_false_requires_sink(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="telemetry sink"):
            simulator.run_stream(trace=golden_records(), keep_results=False)

    def test_unsorted_records_raise_with_index(self):
        records = [
            TraceRecord(5.0, "ghz_n4"),
            TraceRecord(1.0, "ghz_n4"),
        ]
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="record #1"):
            simulator.run_stream(trace=records, seed=7)

    def test_negative_arrival_rejected(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="negative"):
            simulator.run_stream(trace=[TraceRecord(-1.0, "ghz_n4")], seed=7)

    def test_oversized_circuit_rejected_with_capacity_message(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ClusterSimulationError, match="ghz_n120 needs 120"):
            simulator.run_stream(trace=[TraceRecord(0.0, "ghz_n120")], seed=7)

    def test_empty_trace_returns_empty(self):
        simulator = make_simulator(CloudQCScheduler)
        assert simulator.run_stream(trace=[], seed=7) == []


# ----------------------------------------------------------------------
# Regression: run_batch/run_stream length-mismatch validation (bugfix)
# ----------------------------------------------------------------------
class TestLengthMismatchRegression:
    def test_mismatched_arrival_times(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="arrival_times must match"):
            simulator.run_stream([ghz(4), ghz(4)], [0.0])
        with pytest.raises(ValueError, match="arrival_times must match"):
            simulator.run_batch([ghz(4)], arrival_times=[0.0, 1.0])

    def test_empty_circuits_with_arrivals_no_longer_slips_through(self):
        # The old early return (`if not circuits: return []`) ran before the
        # pairing check, silently swallowing a non-empty arrival_times.
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="arrival_times must match"):
            simulator.run_batch([], arrival_times=[0.0, 1.0])
        with pytest.raises(ValueError, match="arrival_times must match"):
            simulator.run_stream([], [0.0])

    def test_empty_circuits_with_tenants(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="tenants must match"):
            simulator.run_batch([], tenants=["a"])

    def test_tenants_mismatch(self):
        simulator = make_simulator(CloudQCScheduler)
        with pytest.raises(ValueError, match="tenants must match"):
            simulator.run_stream([ghz(4)], [0.0], tenants=["a", "b"])

    def test_numpy_arrival_times_still_accepted(self):
        simulator = make_simulator(CloudQCScheduler)
        results = simulator.run_stream([ghz(4)], np.array([0.0]), seed=3)
        assert len(results) == 1
        with pytest.raises(ValueError, match="arrival_times must match"):
            simulator.run_stream([ghz(4)], np.array([0.0, 1.0]))

    def test_empty_batch_still_returns_empty(self):
        simulator = make_simulator(CloudQCScheduler)
        assert simulator.run_batch([]) == []
        assert simulator.run_batch([], arrival_times=[]) == []


# ----------------------------------------------------------------------
# Telemetry event-stream shape under lazy replay
# ----------------------------------------------------------------------
class TestLazyTelemetryEvents:
    def test_tenants_flow_from_records(self):
        events = io.StringIO()
        run_lazy(CloudQCScheduler, telemetry=Telemetry(events=events))
        arrived = [
            json.loads(line)
            for line in events.getvalue().splitlines()
            if json.loads(line).get("event") == "job_arrived"
        ]
        assert [event.get("tenant") for event in arrived] == GOLDEN_TENANTS


# ----------------------------------------------------------------------
# Golden: unsorted in-memory input with tied arrival times
# ----------------------------------------------------------------------
#: The 14-job anchor-burst trace (2 cycles x 6 fillers) in a fixed
#: shuffled order with arrivals rounded to multiples of 7: two pairs of
#: jobs tie (t=0 and t=245), and list order must break both ties.
UNSORTED_GOLDEN_JOBS = 14

#: (placement, scheduler) -> per-result (job_id, circuit, arrival,
#: placement, completion, outcome) with NaN as None, the sha256 of the
#: telemetry event stream, and the job counter after the run.  Recorded
#: from the simulator that submitted in-memory circuits up front, before
#: they entered through the pending-arrival cursor.
UNSORTED_GOLDEN = {
    (CloudQCPlacement, CloudQCScheduler): (
        [
            ("job-5", "ghz_n9", 259.0, 281.0, 298.0, "completed"),
            ("job-6", "ghz_n9", 252.0, 265.0, 281.0, "completed"),
            ("job-7", "ghz_n9", 280.0, 298.0, 306.1, "completed"),
            ("job-8", "ghz_n9", 7.0, 20.0, 36.0, "completed"),
            ("job-9", "ghz_n9", 273.0, 298.0, 306.1, "completed"),
            ("job-10", "ghz_n51", 0.0, 0.0, 50.1, "completed"),
            ("job-11", "ghz_n9", 0.0, 0.0, 16.0, "completed"),
            ("job-12", "ghz_n9", 21.0, 46.0, 62.0, "completed"),
            ("job-13", "ghz_n51", 245.0, 245.0, 295.1, "completed"),
            ("job-14", "ghz_n9", 35.0, 53.0, 61.1, "completed"),
            ("job-15", "ghz_n9", 266.0, 291.0, 307.0, "completed"),
            ("job-16", "ghz_n9", 28.0, 53.0, 61.1, "completed"),
            ("job-17", "ghz_n9", 14.0, 36.0, 53.0, "completed"),
            ("job-18", "ghz_n9", 245.0, 245.0, 261.0, "completed"),
        ],
        "2112960581b1e59ef9a75b54d98f4d80eb0d99d03f0a7e22fa6961f3a9eaa147",
        19,
    ),
    (RandomPlacement, GreedyScheduler): (
        [
            ("job-5", "ghz_n9", 259.0, None, None, "expired"),
            ("job-6", "ghz_n9", 252.0, 277.0, 292.1, "completed"),
            ("job-7", "ghz_n9", 280.0, None, None, "expired"),
            ("job-8", "ghz_n9", 7.0, 32.0, 270.0, "completed"),
            ("job-9", "ghz_n9", 273.0, None, None, "expired"),
            ("job-10", "ghz_n51", 0.0, 0.0, 862.0, "completed"),
            ("job-11", "ghz_n9", 0.0, 0.0, 270.0, "completed"),
            ("job-12", "ghz_n9", 21.0, None, None, "expired"),
            ("job-13", "ghz_n51", 245.0, 270.0, 716.0, "completed"),
            ("job-14", "ghz_n9", 35.0, None, None, "expired"),
            ("job-15", "ghz_n9", 266.0, None, None, "expired"),
            ("job-16", "ghz_n9", 28.0, None, None, "expired"),
            ("job-17", "ghz_n9", 14.0, None, None, "expired"),
            ("job-18", "ghz_n9", 245.0, 270.0, 466.0, "completed"),
        ],
        "aa48c9115ad24eae19637fba10a564cc317e50c961b41d971b715e3ad4fd8df6",
        19,
    ),
}


def unsorted_inputs():
    trace = generate_anchor_burst_trace(cycles=2, fillers_per_cycle=6)
    order = np.random.default_rng(3).permutation(len(trace))
    return (
        [trace.circuits[i] for i in order],
        [7.0 * round(trace.arrival_times[i] / 7.0) for i in order],
        [trace.tenant_ids[i] for i in order],
    )


class TestUnsortedInMemoryGolden:
    @pytest.mark.parametrize(
        "placement_cls, scheduler_cls", list(UNSORTED_GOLDEN)
    )
    def test_results_events_and_job_ids(self, placement_cls, scheduler_cls):
        circuits, times, tenants = unsorted_inputs()
        assert len(circuits) == UNSORTED_GOLDEN_JOBS
        assert times != sorted(times)
        assert times.count(0.0) == times.count(245.0) == 2
        job_module.set_job_counter(5)
        simulator = MultiTenantSimulator(
            small_cloud(),
            placement_algorithm=placement_cls(),
            network_scheduler=scheduler_cls(),
            batch_manager=fifo_batch_manager(),
            admission_policy=QueueingDeadline(30.0),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )
        events = io.StringIO()
        results = simulator.run_stream(
            circuits,
            times,
            seed=7,
            tenants=tenants,
            telemetry=Telemetry(events=events),
        )
        rows = [
            tuple(
                None if isinstance(value, float) and math.isnan(value) else value
                for value in (
                    r.job_id,
                    r.circuit_name,
                    r.arrival_time,
                    r.placement_time,
                    r.completion_time,
                    r.outcome.value,
                )
            )
            for r in results
        ]
        expected_rows, expected_digest, expected_counter = UNSORTED_GOLDEN[
            (placement_cls, scheduler_cls)
        ]
        assert rows == expected_rows
        digest = hashlib.sha256(events.getvalue().encode()).hexdigest()
        assert digest == expected_digest
        assert job_module.job_counter_state() == expected_counter
