"""Tests for the fleet-dynamics / fault-injection layer.

Covers the event and scenario-spec validation, seeded schedule generation,
the simulation semantics of joins / drains / failures / calibration windows
(including the exactly-once disposition of every interrupted job), the
fault-lifecycle telemetry with its byte-identical event-stream round trip,
golden A/B tests pinning that a run with no injector (or an empty one) is
bit-identical to the fault-layer-free simulator across all four schedulers,
and a Hypothesis job-conservation invariant: every submitted job reaches
exactly one terminal outcome no matter what the fleet does.
"""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import ghz, ising
from repro.cloud import CloudTopology, QPU, QuantumCloud
from repro.cloud import job as job_module
from repro.multitenant import (
    CalibrationWindow,
    ChaosSpec,
    ClusterSimulationError,
    DeadlineRescue,
    FaultInjector,
    JobOutcome,
    MultiTenantSimulator,
    QPUDrain,
    QPUFail,
    QPUJoin,
    QueueingDeadline,
    Telemetry,
    fifo_batch_manager,
    generate_fleet_events,
    iter_events,
)
from repro.placement import CloudQCPlacement, RandomPlacement, random_qpu_walk
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


def line_cloud(n=2, computing=16, communication=4, epr=1.0, members=None):
    topology = CloudTopology.line(n)
    qpus = None
    if members is not None:
        qpus = {
            qpu_id: QPU(
                qpu_id=qpu_id,
                computing_capacity=computing,
                communication_capacity=communication,
            )
            for qpu_id in members
        }
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=computing,
        communication_qubits_per_qpu=communication,
        epr_success_probability=epr,
        qpus=qpus,
    )


def run_stream(
    cloud,
    circuits,
    arrivals,
    seed=7,
    injector=None,
    telemetry=None,
    scheduler_cls=CloudQCScheduler,
    admission_policy=None,
    preemption_policy=None,
):
    # Realign the process-global job counter so comparable runs mint
    # identical job ids (scheduler tiebreaks read the id strings).
    job_module._job_counter = itertools.count()
    simulator = MultiTenantSimulator(
        cloud,
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=scheduler_cls(),
        batch_manager=fifo_batch_manager(),
        admission_policy=admission_policy,
        preemption_policy=preemption_policy,
        fault_injector=injector,
    )
    return simulator.run_stream(
        circuits, arrivals, seed=seed, telemetry=telemetry
    )


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


# ----------------------------------------------------------------------
# Event / spec / injector validation
# ----------------------------------------------------------------------
class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            QPUFail(time=-1.0, qpu_id=0)

    def test_calibration_needs_positive_duration(self):
        with pytest.raises(ValueError):
            CalibrationWindow(time=0.0, qpu_id=0, duration=0.0)

    def test_calibration_probability_range(self):
        with pytest.raises(ValueError):
            CalibrationWindow(
                time=0.0, qpu_id=0, duration=1.0, epr_success_probability=1.5
            )

    def test_chaos_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(duration=0.0)
        with pytest.raises(ValueError):
            ChaosSpec(duration=10.0, failure_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosSpec(duration=10.0, mean_repair_time=0.0)
        with pytest.raises(ValueError):
            ChaosSpec(duration=10.0, calibration_epr_probability=0.0)

    def test_injector_rejects_bad_failure_mode(self):
        with pytest.raises(ValueError):
            FaultInjector(on_failure="retry")

    def test_injector_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultInjector(events=["not-an-event"])

    def test_injector_sorts_events_by_time(self):
        injector = FaultInjector(
            events=[QPUFail(time=9.0, qpu_id=1), QPUJoin(time=2.0, qpu_id=0)]
        )
        assert [event.time for event in injector.events] == [2.0, 9.0]


class TestScheduleGeneration:
    def spec(self):
        return ChaosSpec(
            duration=300.0,
            failure_rate=0.01,
            drain_rate=0.005,
            calibration_rate=0.01,
        )

    def test_same_seed_same_schedule(self):
        a = generate_fleet_events(self.spec(), [0, 1, 2], seed=3)
        b = generate_fleet_events(self.spec(), [0, 1, 2], seed=3)
        assert a == b
        c = generate_fleet_events(self.spec(), [0, 1, 2], seed=4)
        assert a != c

    def test_events_sorted_and_on_requested_qpus(self):
        events = generate_fleet_events(self.spec(), [0, 1, 2], seed=3)
        assert events
        times = [event.time for event in events]
        assert times == sorted(times)
        assert {event.qpu_id for event in events} <= {0, 1, 2}

    def test_every_outage_ends_in_a_join(self):
        events = generate_fleet_events(self.spec(), [0, 1, 2, 3], seed=5)
        for qpu_id in (0, 1, 2, 3):
            own = [e for e in events if e.qpu_id == qpu_id]
            offline = False
            for event in own:
                if isinstance(event, (QPUFail, QPUDrain)):
                    assert not offline, "outages must not overlap"
                    offline = True
                elif isinstance(event, QPUJoin):
                    assert offline, "a join must close an outage"
                    offline = False
            assert not offline, "the schedule must recover every QPU"

    def test_zero_rates_yield_empty_schedule(self):
        assert generate_fleet_events(ChaosSpec(duration=50.0), [0, 1]) == []


# ----------------------------------------------------------------------
# Simulation semantics of the four event kinds
# ----------------------------------------------------------------------
class TestFailureSemantics:
    def test_drop_mode_fails_interrupted_jobs_terminally(self):
        sink = Telemetry()
        [result] = run_stream(
            line_cloud(),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(
                events=[QPUFail(time=5.0, qpu_id=0)], on_failure="drop"
            ),
            telemetry=sink,
        )
        assert result.outcome == JobOutcome.FAILED
        assert result.dropped_time == 5.0
        assert not result.completed
        assert result.wasted_time > 0.0
        assert sink.outcome_counts["failed"] == 1
        assert sink.interrupted_jobs == 1
        assert sink.fleet_events["qpu_fail"] == 1

    def test_requeue_mode_recovers_after_rejoin(self):
        baseline = run_stream(line_cloud(), [ghz(24)], [0.0])
        [result] = run_stream(
            line_cloud(),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(
                events=[
                    QPUFail(time=5.0, qpu_id=0),
                    QPUJoin(time=40.0, qpu_id=0),
                ]
            ),
        )
        assert result.outcome == JobOutcome.COMPLETED
        assert result.num_preemptions == 1
        # The outage pushed completion past the fault-free run.
        assert result.completion_time > baseline[0].completion_time

    def test_failing_the_last_member_is_a_noop(self):
        [result] = run_stream(
            line_cloud(),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(
                events=[
                    QPUFail(time=5.0, qpu_id=0),
                    QPUFail(time=6.0, qpu_id=1),  # last member: ignored
                    QPUJoin(time=40.0, qpu_id=0),
                ]
            ),
        )
        assert result.outcome == JobOutcome.COMPLETED


class TestDrainSemantics:
    def test_drain_live_migrates_when_a_placement_exists(self):
        # Learn where the seeded run placed the job, then drain that QPU:
        # a 3-QPU cloud has room elsewhere, so the drain must live-migrate
        # (no preemption, no lost work).
        cloud_kwargs = dict(n=3, computing=30)
        sink = Telemetry(events=io.StringIO())
        run_stream(
            line_cloud(**cloud_kwargs), [ghz(24)], [0.0], telemetry=sink
        )
        placed = next(
            record
            for record in iter_events(
                iter(sink._stream.getvalue().splitlines())
            )
            if record["event"] == "placed"
        )
        victim_qpu = placed["qpus"][0]

        chaos_sink = Telemetry()
        [result] = run_stream(
            line_cloud(**cloud_kwargs),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(
                events=[QPUDrain(time=2.0, qpu_id=victim_qpu)]
            ),
            telemetry=chaos_sink,
        )
        assert result.outcome == JobOutcome.COMPLETED
        assert result.num_migrations == 1
        assert result.num_preemptions == 0
        assert chaos_sink.fleet_migrated == 1
        assert chaos_sink.fleet_requeued == 0

    def test_drain_requeues_when_no_placement_fits(self):
        # ghz(24) spans both 16-qubit QPUs: hiding either leaves no feasible
        # placement, so the drain preempts and requeues; the rejoin lets the
        # job finish.
        [result] = run_stream(
            line_cloud(),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(
                events=[
                    QPUDrain(time=5.0, qpu_id=1),
                    QPUJoin(time=40.0, qpu_id=1),
                ]
            ),
        )
        assert result.outcome == JobOutcome.COMPLETED
        assert result.num_preemptions == 1


class TestJoinSemantics:
    def test_standby_join_adds_capacity(self):
        circuits = [ghz(16), ghz(16), ghz(16)]
        arrivals = [0.0, 0.0, 0.0]
        without_join = run_stream(
            line_cloud(n=3, members=[0, 1]), circuits, arrivals
        )
        with_join = run_stream(
            line_cloud(n=3, members=[0, 1]),
            circuits,
            arrivals,
            injector=FaultInjector(
                events=[
                    QPUJoin(
                        time=0.0,
                        qpu_id=2,
                        computing_capacity=16,
                        communication_capacity=4,
                    )
                ]
            ),
        )
        assert all(r.completed for r in with_join)
        assert max(r.completion_time for r in with_join) < max(
            r.completion_time for r in without_join
        )

    def test_unknown_join_without_capacities_raises(self):
        with pytest.raises(ClusterSimulationError):
            run_stream(
                line_cloud(n=3, members=[0, 1]),
                [ghz(16)],
                [0.0],
                injector=FaultInjector(events=[QPUJoin(time=0.0, qpu_id=2)]),
            )

    def test_joining_a_member_is_a_noop(self):
        baseline = run_stream(line_cloud(), [ghz(24)], [0.0])
        rejoined = run_stream(
            line_cloud(),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(events=[QPUJoin(time=1.0, qpu_id=0)]),
        )
        assert [result_key(r) for r in baseline] == [
            result_key(r) for r in rejoined
        ]


class TestCalibrationSemantics:
    def test_calibration_window_slows_remote_jobs(self):
        baseline = run_stream(line_cloud(), [ghz(24)], [0.0])
        sink = Telemetry()
        degraded = run_stream(
            line_cloud(),
            [ghz(24)],
            [0.0],
            injector=FaultInjector(
                events=[
                    CalibrationWindow(
                        time=0.0,
                        qpu_id=0,
                        duration=500.0,
                        epr_success_probability=0.05,
                    )
                ]
            ),
            telemetry=sink,
        )
        assert degraded[0].completed
        assert degraded[0].completion_time > baseline[0].completion_time
        assert sink.fleet_events["calibration_start"] == 1
        assert sink.fleet_events["calibration_end"] == 1

    def test_probability_restored_after_window(self):
        # Once the window closes, rounds sample at full probability again:
        # a short window must finish well before a run-long one.
        def run_with_window(duration):
            [result] = run_stream(
                line_cloud(),
                [ghz(24)],
                [0.0],
                injector=FaultInjector(
                    events=[
                        CalibrationWindow(
                            time=0.0,
                            qpu_id=0,
                            duration=duration,
                            epr_success_probability=0.05,
                        )
                    ]
                ),
            )
            return result

        short = run_with_window(5.0)
        long = run_with_window(500.0)
        assert short.completed and long.completed
        assert short.completion_time < long.completion_time


class TestRandomPlacementAfterFleetShrinks:
    """RandomPlacement walks links of the static topology; a QPU that failed
    or drained keeps its links but has left the fleet, so the walk must step
    around it (it used to raise KeyError from ``random_qpu_walk``)."""

    @staticmethod
    def grid_cloud():
        return QuantumCloud(
            CloudTopology.grid(3, 3),
            computing_qubits_per_qpu=12,
            communication_qubits_per_qpu=4,
            epr_success_probability=0.3,
        )

    @pytest.mark.parametrize("event_cls", [QPUFail, QPUDrain])
    def test_random_placement_runs_through_a_departure(self, event_cls):
        job_module._job_counter = itertools.count()
        simulator = MultiTenantSimulator(
            self.grid_cloud(),
            placement_algorithm=RandomPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            fault_injector=FaultInjector(events=[event_cls(time=1.0, qpu_id=4)]),
        )
        circuits = [ising(34), ghz(24), ising(34), ghz(24), ghz(16), ising(34)]
        arrivals = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        results = simulator.run_stream(circuits, arrivals, seed=1)
        assert len(results) == len(circuits)
        assert all(r.completed for r in results)

    def test_walk_never_selects_a_departed_qpu(self):
        cloud = self.grid_cloud()
        cloud.remove_qpu(4)  # the centre: every other QPU links to it or past it
        for seed in range(30):
            selected = random_qpu_walk(cloud, 60, np.random.default_rng(seed))
            assert 4 not in selected
            assert sum(cloud.qpu(q).computing_available for q in selected) >= 60


# ----------------------------------------------------------------------
# Fault-lifecycle telemetry
# ----------------------------------------------------------------------
def storm_injector(on_failure="requeue"):
    return FaultInjector(
        events=[
            CalibrationWindow(
                time=2.0, qpu_id=1, duration=6.0, epr_success_probability=0.2
            ),
            QPUFail(time=10.0, qpu_id=0),
            QPUJoin(time=30.0, qpu_id=0),
            QPUDrain(time=45.0, qpu_id=1),
            QPUJoin(time=60.0, qpu_id=1),
        ],
        on_failure=on_failure,
    )


def run_storm(telemetry=None, on_failure="requeue"):
    circuits = [ghz(24), ghz(16), ising(34), ghz(16)]
    arrivals = [0.0, 8.0, 20.0, 42.0]
    return run_stream(
        line_cloud(n=3),
        circuits,
        arrivals,
        injector=storm_injector(on_failure),
        telemetry=telemetry,
        admission_policy=QueueingDeadline(200.0),
    )


class TestFaultTelemetry:
    def test_downtime_and_availability_accounting(self):
        sink = Telemetry()
        run_storm(telemetry=sink)
        assert sink.fleet_events["qpu_fail"] == 1
        assert sink.fleet_events["qpu_drain"] == 1
        assert sink.fleet_events["qpu_join"] == 2
        assert sink.qpu_downtime[0] == pytest.approx(20.0)
        assert sink.qpu_downtime[1] == pytest.approx(15.0)
        availability = sink.qpu_availability(100.0)
        assert availability[0] == pytest.approx(0.8)
        assert availability[1] == pytest.approx(0.85)

    def test_open_outage_counts_to_horizon(self):
        sink = Telemetry()
        sink.qpu_failed(3, 10.0)
        assert sink.qpu_availability(100.0)[3] == pytest.approx(0.1)
        with pytest.raises(ValueError):
            sink.qpu_availability(0.0)

    def test_event_stream_round_trip_is_byte_identical(self):
        sink = Telemetry(events=io.StringIO())
        run_storm(telemetry=sink)
        exported = sink._stream.getvalue()
        assert '"qpu_fail"' in exported
        assert '"calibration_start"' in exported
        rebuilt = Telemetry.from_events(iter(exported.splitlines()))
        # Re-export through a fresh sink: replay must reproduce the stream
        # byte for byte (fleet events included).
        replayed = Telemetry(events=io.StringIO())
        for record in iter_events(iter(exported.splitlines())):
            replayed._apply(record)
        assert replayed._stream.getvalue() == exported
        assert rebuilt.fleet_events == sink.fleet_events
        assert rebuilt.qpu_downtime == sink.qpu_downtime
        assert rebuilt.interrupted_jobs == sink.interrupted_jobs
        assert rebuilt.summary() == sink.summary()

    def test_failed_outcome_round_trip(self):
        sink = Telemetry(events=io.StringIO())
        run_storm(telemetry=sink, on_failure="drop")
        exported = sink._stream.getvalue()
        assert '"failed"' in exported
        rebuilt = Telemetry.from_events(iter(exported.splitlines()))
        assert rebuilt.outcome_counts["failed"] >= 1
        assert rebuilt.outcome_counts == sink.outcome_counts
        assert rebuilt.summary() == sink.summary()
        assert rebuilt.summary().failed == sink.outcome_counts["failed"]


# ----------------------------------------------------------------------
# Golden A/B: no injector (or an empty one) must not move a single bit
# ----------------------------------------------------------------------
PREEMPTION_POLICIES = [
    None,
    DeadlineRescue(horizon=5.0),
]


class TestNoInjectorBitIdentity:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_empty_injector_bit_identical_across_schedulers(
        self, scheduler_cls
    ):
        circuits = [ghz(24), ising(34), ghz(16), ghz(24)]
        arrivals = [0.0, 11.0, 25.0, 40.0]
        baseline = run_stream(
            line_cloud(n=4), circuits, arrivals, scheduler_cls=scheduler_cls
        )
        observed = run_stream(
            line_cloud(n=4),
            circuits,
            arrivals,
            scheduler_cls=scheduler_cls,
            injector=FaultInjector(),
        )
        assert [result_key(r) for r in baseline] == [
            result_key(r) for r in observed
        ]

    @pytest.mark.parametrize("policy", PREEMPTION_POLICIES)
    def test_empty_injector_bit_identical_across_preemption(self, policy):
        circuits = [ghz(24), ghz(24), ghz(16), ghz(24)]
        arrivals = [0.0, 1.0, 2.0, 3.0]
        kwargs = dict(
            admission_policy=QueueingDeadline(30.0),
            preemption_policy=policy,
        )
        baseline = run_stream(line_cloud(n=4), circuits, arrivals, **kwargs)
        observed = run_stream(
            line_cloud(n=4),
            circuits,
            arrivals,
            injector=FaultInjector(),
            **kwargs,
        )
        assert [result_key(r) for r in baseline] == [
            result_key(r) for r in observed
        ]

    def test_empty_injector_telemetry_stream_byte_identical(self):
        circuits = [ghz(24), ising(34), ghz(16)]
        arrivals = [0.0, 11.0, 25.0]
        plain = Telemetry(events=io.StringIO())
        run_stream(line_cloud(n=4), circuits, arrivals, telemetry=plain)
        injected = Telemetry(events=io.StringIO())
        run_stream(
            line_cloud(n=4),
            circuits,
            arrivals,
            telemetry=injected,
            injector=FaultInjector(),
        )
        assert injected._stream.getvalue() == plain._stream.getvalue()


# ----------------------------------------------------------------------
# Job conservation under arbitrary fleet churn (Hypothesis)
# ----------------------------------------------------------------------
TERMINAL_OUTCOMES = {
    JobOutcome.COMPLETED,
    JobOutcome.REJECTED,
    JobOutcome.EXPIRED,
    JobOutcome.PREEMPTED,
    JobOutcome.FAILED,
}


def fleet_event_strategy():
    times = st.floats(min_value=0.0, max_value=80.0, allow_nan=False)
    qpus = st.sampled_from([0, 1, 2])
    fails = st.builds(QPUFail, time=times, qpu_id=qpus)
    drains = st.builds(QPUDrain, time=times, qpu_id=qpus)
    joins = st.builds(
        QPUJoin,
        time=times,
        qpu_id=qpus,
        computing_capacity=st.just(16),
        communication_capacity=st.just(4),
    )
    calibrations = st.builds(
        CalibrationWindow,
        time=times,
        qpu_id=qpus,
        duration=st.floats(min_value=0.5, max_value=30.0),
        epr_success_probability=st.floats(min_value=0.05, max_value=1.0),
    )
    return st.one_of(fails, drains, joins, calibrations)


class TestJobConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        events=st.lists(fleet_event_strategy(), max_size=8),
        on_failure=st.sampled_from(["requeue", "drop"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_job_reaches_exactly_one_terminal_outcome(
        self, events, on_failure, seed
    ):
        cloud = line_cloud(n=3)
        circuits = [ghz(24), ghz(16), ghz(8), ghz(16)]
        arrivals = [0.0, 5.0, 10.0, 15.0]
        results = run_stream(
            cloud,
            circuits,
            arrivals,
            seed=seed,
            injector=FaultInjector(events=events, on_failure=on_failure),
            # A deadline keeps jobs whose capacity never comes back from
            # stalling the run forever.
            admission_policy=QueueingDeadline(40.0),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )
        # Exactly one terminal outcome per submitted job.
        assert len(results) == len(circuits)
        assert len({r.job_id for r in results}) == len(circuits)
        assert all(JobOutcome(r.outcome) in TERMINAL_OUTCOMES for r in results)
        # Completed jobs carry a real completion; dropped ones a drop time.
        for result in results:
            if result.completed:
                assert result.completion_time >= result.arrival_time
            else:
                assert result.dropped_time is not None
        # The template cloud is never mutated: full capacity, all members.
        assert cloud.total_computing_available() == 3 * 16
        assert all(qpu.computing_used == 0 for qpu in cloud.qpus.values())
