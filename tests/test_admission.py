"""Tests for the admission-control policies and their simulator wiring."""

import math

import pytest

from repro.circuits.library import ghz
from repro.analysis import default_cloud as make_default_cloud
from repro.cloud import CloudTopology, Job, QuantumCloud
from repro.multitenant import (
    AdmissionPolicy,
    AdmitAll,
    JobOutcome,
    MultiTenantSimulator,
    QueueDepthThreshold,
    QueueingDeadline,
    TokenBucket,
    bursty_arrivals,
    fifo_batch_manager,
    max_queue_depth,
    poisson_arrivals,
    priority_batch_manager,
    uniform_arrivals,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler


def make_simulator(cloud, batch_manager=None, **kwargs):
    return MultiTenantSimulator(
        cloud,
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=batch_manager or priority_batch_manager(),
        **kwargs,
    )


def contended_cloud(epr_success_probability=1.0):
    """Two QPUs that can hold one 24-qubit job plus one small job."""
    topology = CloudTopology.line(2)
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=16,
        communication_qubits_per_qpu=2,
        epr_success_probability=epr_success_probability,
    )


def job(num_qubits=4, arrival_time=0.0):
    return Job(circuit=ghz(num_qubits), arrival_time=arrival_time)


class RejectEverything(AdmissionPolicy):
    name = "reject-everything"

    def admit(self, job, now, queue_depth):
        return False


class TestPolicyUnits:
    def test_admit_all_admits(self):
        policy = AdmitAll()
        assert policy.admit(job(), 0.0, 10_000)
        assert policy.queueing_deadline(job()) is None

    def test_queue_depth_threshold_boundary(self):
        policy = QueueDepthThreshold(max_depth=3)
        assert policy.admit(job(), 0.0, 0)
        assert policy.admit(job(), 0.0, 2)
        assert not policy.admit(job(), 0.0, 3)
        assert not policy.admit(job(), 0.0, 50)

    def test_queue_depth_threshold_validation(self):
        with pytest.raises(ValueError):
            QueueDepthThreshold(0)
        with pytest.raises(ValueError):
            QueueDepthThreshold(-2)

    def test_token_bucket_consumes_and_refills(self):
        policy = TokenBucket(rate=0.1, capacity=2.0)
        assert policy.admit(job(), 0.0, 0)  # 2 -> 1 token
        assert policy.admit(job(), 0.0, 0)  # 1 -> 0 tokens
        assert not policy.admit(job(), 1.0, 0)  # refilled only 0.1
        assert policy.admit(job(), 11.0, 0)  # ~1.1 tokens accumulated

    def test_token_bucket_caps_at_capacity(self):
        policy = TokenBucket(rate=1.0, capacity=2.0)
        # A long idle period must not bank more than `capacity` admissions.
        assert policy.admit(job(), 1000.0, 0)
        assert policy.admit(job(), 1000.0, 0)
        assert not policy.admit(job(), 1000.0, 0)

    def test_token_bucket_reset_restores_a_full_bucket(self):
        policy = TokenBucket(rate=0.001, capacity=1.0)
        assert policy.admit(job(), 0.0, 0)
        assert not policy.admit(job(), 1.0, 0)
        policy.reset()
        assert policy.admit(job(), 0.0, 0)

    def test_token_bucket_validation(self):
        for rate, capacity in [(0.0, 5.0), (-1.0, 5.0), (math.nan, 5.0),
                               (1.0, 0.5), (1.0, math.inf)]:
            with pytest.raises(ValueError):
                TokenBucket(rate=rate, capacity=capacity)

    def test_queueing_deadline_is_relative_to_arrival(self):
        policy = QueueingDeadline(max_delay=50.0)
        assert policy.admit(job(), 0.0, 10_000)
        assert policy.queueing_deadline(job(arrival_time=30.0)) == 80.0

    def test_queueing_deadline_validation(self):
        for delay in [0.0, -1.0, math.nan, math.inf]:
            with pytest.raises(ValueError):
                QueueingDeadline(delay)


class TestRejectEverything:
    def test_all_jobs_rejected_and_sim_terminates(self, default_cloud):
        simulator = make_simulator(
            default_cloud, admission_policy=RejectEverything()
        )
        circuits = [ghz(8), ghz(16), ghz(24)]
        results = simulator.run_stream(circuits, [0.0, 5.0, 10.0], seed=1)
        assert len(results) == 3
        assert all(r.outcome == JobOutcome.REJECTED for r in results)
        assert all(not r.completed for r in results)
        assert all(math.isnan(r.placement_time) for r in results)
        assert all(math.isnan(r.completion_time) for r in results)
        assert all(math.isnan(r.job_completion_time) for r in results)
        assert all(math.isnan(r.queueing_delay) for r in results)
        # A rejection happens at the arrival instant.
        assert [r.dropped_time for r in results] == [0.0, 5.0, 10.0]


class TestQueueDepthIntegration:
    def test_burst_overload_above_threshold_sheds_load(self, default_cloud):
        # Six simultaneous arrivals against a depth-2 queue: the first two
        # are admitted (queue depth 0 and 1 at their arrival events), the
        # rest see a full queue and are rejected before any placement runs.
        simulator = make_simulator(
            default_cloud,
            fifo_batch_manager(),
            admission_policy=QueueDepthThreshold(max_depth=2),
        )
        circuits = [ghz(8)] * 6
        arrivals = bursty_arrivals(6, burst_size=6, burst_gap=0.0)
        results = simulator.run_stream(circuits, arrivals, seed=1)
        rejected = [r for r in results if r.outcome == JobOutcome.REJECTED]
        completed = [r for r in results if r.completed]
        assert len(rejected) == 4
        assert len(completed) == 2
        assert max_queue_depth(results) <= 2

    def test_no_shedding_when_under_threshold(self, default_cloud):
        simulator = make_simulator(
            default_cloud,
            fifo_batch_manager(),
            admission_policy=QueueDepthThreshold(max_depth=10),
        )
        circuits = [ghz(8), ghz(8), ghz(8)]
        results = simulator.run_stream(circuits, [0.0, 100.0, 200.0], seed=1)
        assert all(r.completed for r in results)


class TestDeadlineIntegration:
    def test_job_expires_at_exactly_the_deadline(self):
        # ghz(24) holds 24 of 32 qubits until t=23.1; the second ghz(24)
        # arrives at t=1 and cannot be placed, so a 10-unit deadline drops
        # it at t=11 with the advertised queueing delay.
        simulator = make_simulator(
            contended_cloud(),
            fifo_batch_manager(),
            admission_policy=QueueingDeadline(max_delay=10.0),
        )
        results = simulator.run_stream(
            [ghz(24), ghz(24)], arrival_times=[0.0, 1.0], seed=1
        )
        first, second = sorted(results, key=lambda r: r.arrival_time)
        assert first.completed
        assert second.outcome == JobOutcome.EXPIRED
        assert second.dropped_time == pytest.approx(11.0)
        assert second.queueing_delay == pytest.approx(10.0)
        assert math.isnan(second.completion_time)

    def test_generous_deadline_lets_the_job_run(self):
        simulator = make_simulator(
            contended_cloud(),
            fifo_batch_manager(),
            admission_policy=QueueingDeadline(max_delay=100.0),
        )
        results = simulator.run_stream(
            [ghz(24), ghz(24)], arrival_times=[0.0, 1.0], seed=1
        )
        assert all(r.completed for r in results)
        second = max(results, key=lambda r: r.arrival_time)
        assert second.queueing_delay <= 100.0

    def test_expiry_frees_the_queue_for_later_jobs(self):
        # The expired middle job must not block the third arrival.
        simulator = make_simulator(
            contended_cloud(),
            fifo_batch_manager(),
            admission_policy=QueueingDeadline(max_delay=5.0),
        )
        results = simulator.run_stream(
            [ghz(24), ghz(24), ghz(8)],
            arrival_times=[0.0, 1.0, 30.0],
            seed=1,
        )
        by_arrival = sorted(results, key=lambda r: r.arrival_time)
        assert by_arrival[0].completed
        assert by_arrival[1].outcome == JobOutcome.EXPIRED
        assert by_arrival[2].completed


class TestTokenBucketIntegration:
    def test_uniform_stream_faster_than_refill_alternates(self, default_cloud):
        simulator = make_simulator(
            default_cloud,
            fifo_batch_manager(),
            admission_policy=TokenBucket(rate=0.1, capacity=1.0),
        )
        circuits = [ghz(8)] * 4
        results = simulator.run_stream(
            circuits, uniform_arrivals(4, interval=5.0), seed=1
        )
        by_arrival = sorted(results, key=lambda r: r.arrival_time)
        outcomes = [r.outcome for r in by_arrival]
        assert outcomes == [
            JobOutcome.COMPLETED,
            JobOutcome.REJECTED,
            JobOutcome.COMPLETED,
            JobOutcome.REJECTED,
        ]

    def test_policy_state_resets_between_runs(self, default_cloud):
        simulator = make_simulator(
            default_cloud,
            fifo_batch_manager(),
            admission_policy=TokenBucket(rate=0.001, capacity=1.0),
        )
        for _ in range(2):
            results = simulator.run_stream(
                [ghz(8), ghz(8)], uniform_arrivals(2, interval=1.0), seed=1
            )
            by_arrival = sorted(results, key=lambda r: r.arrival_time)
            assert by_arrival[0].completed
            assert by_arrival[1].outcome == JobOutcome.REJECTED


class TestAdmitAllRegression:
    """AdmitAll (and the default, policy-less construction) must keep
    ``run_stream`` bit-identical to the pre-admission-control simulator.
    The pinned numbers were captured on the code before this subsystem
    existed."""

    def test_admit_all_matches_default_construction(self, default_cloud):
        circuits = [ghz(16), ghz(24), ghz(16)]
        arrivals = poisson_arrivals(3, rate=0.01, seed=5)
        baseline = make_simulator(default_cloud, fifo_batch_manager())
        explicit = make_simulator(
            default_cloud, fifo_batch_manager(), admission_policy=AdmitAll()
        )
        a = baseline.run_stream(circuits, arrivals, seed=2)
        b = explicit.run_stream(circuits, arrivals, seed=2)
        assert [
            (r.circuit_name, r.arrival_time, r.placement_time, r.completion_time)
            for r in a
        ] == [
            (r.circuit_name, r.arrival_time, r.placement_time, r.completion_time)
            for r in b
        ]

    def test_golden_stream_default_cloud(self):
        from repro.circuits.library import ising

        cloud = make_default_cloud(seed=7)
        simulator = make_simulator(cloud, fifo_batch_manager())
        results = simulator.run_stream(
            [ghz(24), ising(34), ghz(16)], [0.0, 40.0, 80.0], seed=2
        )
        got = [
            (
                r.circuit_name,
                r.arrival_time,
                r.placement_time,
                r.completion_time,
                r.num_remote_operations,
                r.num_qpus_used,
            )
            for r in results
        ]
        assert got == [
            ("ghz_n24", 0.0, 0.0, pytest.approx(23.1), 1, 2),
            ("ising_n34", 40.0, 40.0, pytest.approx(66.0), 2, 2),
            ("ghz_n16", 80.0, 80.0, pytest.approx(95.1), 0, 1),
        ]
        assert all(r.outcome == JobOutcome.COMPLETED for r in results)

    def test_golden_stream_contended_priority(self):
        cloud = contended_cloud(epr_success_probability=0.5)
        simulator = make_simulator(cloud, priority_batch_manager())
        arrivals = poisson_arrivals(4, rate=0.02, seed=9)
        results = simulator.run_stream(
            [ghz(24), ghz(16), ghz(24), ghz(8)], arrivals, seed=13
        )
        got = [
            (r.circuit_name, r.placement_time, r.completion_time)
            for r in results
        ]
        assert got == [
            ("ghz_n24", pytest.approx(164.4453786366743), pytest.approx(200.4453786366743)),
            ("ghz_n16", pytest.approx(200.4453786366743), pytest.approx(215.5453786366743)),
            ("ghz_n24", pytest.approx(236.17315062348837), pytest.approx(262.17315062348837)),
            ("ghz_n8", pytest.approx(286.1095769402868), pytest.approx(293.2095769402868)),
        ]
