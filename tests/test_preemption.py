"""Tests for preemption & migration: policies, work ledger, simulator."""

import itertools
import math

import pytest

from repro.circuits.library import ghz, ising
from repro.analysis import default_cloud as make_default_cloud
from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud import job as job_module
from repro.multitenant import (
    ClusterView,
    DeadlineRescue,
    JobOutcome,
    JobProgress,
    MultiTenantSimulator,
    NeverPreempt,
    PendingJobView,
    PreemptRequest,
    PreemptionPolicy,
    QueueingDeadline,
    RunningJobView,
    fifo_batch_manager,
    poisson_arrivals,
    priority_batch_manager,
)
from repro.placement import CloudQCPlacement, MappingError
from repro.scheduling import (
    AverageScheduler,
    CloudQCScheduler,
    GreedyScheduler,
    RandomScheduler,
    RemoteDAG,
)
from repro.sim import FrontLayer


def contended_cloud(epr_success_probability=1.0):
    """Two QPUs that can hold one 24-qubit job plus one small job."""
    topology = CloudTopology.line(2)
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=16,
        communication_qubits_per_qpu=2,
        epr_success_probability=epr_success_probability,
    )


def make_simulator(cloud, batch_manager=None, **kwargs):
    return MultiTenantSimulator(
        cloud,
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=batch_manager or fifo_batch_manager(),
        **kwargs,
    )


def pending_view(job_id, qubits=8, deadline=None, waited=0.0):
    return PendingJobView(
        job_id=job_id,
        num_qubits=qubits,
        arrival_time=0.0,
        waited=waited,
        deadline=deadline,
        num_preemptions=0,
    )


def running_view(
    job_id,
    qubits=8,
    elapsed=0.0,
    completed_ops=0,
    total_ops=0,
):
    return RunningJobView(
        job_id=job_id,
        num_qubits=qubits,
        start_time=0.0,
        elapsed=elapsed,
        completed_ops=completed_ops,
        total_ops=total_ops,
    )


def view(pending=(), running=(), available=0, now=0.0):
    return ClusterView(
        now=now,
        pending=tuple(pending),
        running=tuple(running),
        available=available,
    )


class TestNeverPreempt:
    def test_decides_nothing_and_is_disabled(self):
        policy = NeverPreempt()
        assert policy.enabled is False
        assert policy.decide(view(pending=[pending_view("job-0")])) == []
        assert policy.rescue_check_time(None, 10.0) is None


class TestDeadlineRescuePolicy:
    def test_rescues_only_imminent_deadlines(self):
        policy = DeadlineRescue(horizon=5.0)
        far = view(
            pending=[pending_view("p", qubits=8, deadline=100.0)],
            running=[running_view("victim", qubits=8)],
            available=0,
            now=0.0,
        )
        assert policy.decide(far) == []
        near = view(
            pending=[pending_view("p", qubits=8, deadline=4.0)],
            running=[running_view("victim", qubits=8)],
            available=0,
            now=0.0,
        )
        assert policy.decide(near) == [PreemptRequest("victim")]

    def test_no_rescue_when_free_capacity_suffices(self):
        policy = DeadlineRescue(horizon=5.0)
        v = view(
            pending=[pending_view("p", qubits=8, deadline=4.0)],
            running=[running_view("victim", qubits=8)],
            available=8,
        )
        assert policy.decide(v) == []

    def test_jobs_without_deadlines_are_never_rescued(self):
        policy = DeadlineRescue(horizon=5.0)
        v = view(
            pending=[pending_view("p", qubits=8, deadline=None)],
            running=[running_view("victim", qubits=8)],
            available=0,
        )
        assert policy.decide(v) == []

    def test_cheapest_victims_cover_aggregate_need(self):
        policy = DeadlineRescue(horizon=5.0)
        actions = policy.decide(
            view(
                pending=[
                    pending_view("p1", qubits=8, deadline=3.0),
                    pending_view("p2", qubits=8, deadline=4.0),
                ],
                running=[
                    running_view("cheap", qubits=8, elapsed=1.0),
                    running_view("mid", qubits=8, elapsed=5.0),
                    running_view("dear", qubits=8, elapsed=50.0),
                ],
                available=0,
            )
        )
        assert actions == [PreemptRequest("cheap"), PreemptRequest("mid")]

    def test_no_eviction_when_need_cannot_be_covered(self):
        policy = DeadlineRescue(horizon=5.0)
        actions = policy.decide(
            view(
                pending=[pending_view("p", qubits=30, deadline=3.0)],
                running=[running_view("victim", qubits=8)],
                available=0,
            )
        )
        assert actions == []

    def test_savable_subset_is_rescued_when_not_all_can_be(self):
        # Regression: an uncoverable imminent job must not veto the rescue
        # of a coverable one -- coverage is per job, in batch-manager order.
        policy = DeadlineRescue(horizon=5.0)
        actions = policy.decide(
            view(
                pending=[
                    pending_view("savable", qubits=40, deadline=3.0),
                    pending_view("doomed", qubits=40, deadline=4.0),
                ],
                running=[running_view("anchor", qubits=51)],
                available=9,
            )
        )
        assert actions == [PreemptRequest("anchor")]

    def test_capacity_claimed_by_earlier_pending_jobs_is_debited(self):
        # Regression: a non-imminent job ahead in placement order will be
        # seated first and consume the free capacity, so the imminent job
        # behind it still needs a rescue even though it "fits" raw free
        # capacity at the decision instant.
        policy = DeadlineRescue(horizon=5.0)
        actions = policy.decide(
            view(
                pending=[
                    pending_view("early-far", qubits=5, deadline=1000.0),
                    pending_view("imminent", qubits=5, deadline=3.0),
                ],
                running=[running_view("victim", qubits=8)],
                available=5,
            )
        )
        assert actions == [PreemptRequest("victim")]

    def test_nonfitting_far_deadline_job_does_not_consume_capacity(self):
        # A non-imminent job too big to place is skipped by the placement
        # pass, so it must not inflate the rescue need.
        policy = DeadlineRescue(horizon=5.0)
        actions = policy.decide(
            view(
                pending=[
                    pending_view("early-huge", qubits=30, deadline=1000.0),
                    pending_view("imminent", qubits=5, deadline=3.0),
                ],
                running=[running_view("victim", qubits=8)],
                available=5,
            )
        )
        assert actions == []

    def test_rescue_check_time_precedes_the_deadline(self):
        policy = DeadlineRescue(horizon=5.0)
        assert policy.rescue_check_time(None, 42.0) == 37.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineRescue(horizon=0.0)
        with pytest.raises(ValueError):
            DeadlineRescue(horizon=-2.0)


class TestJobProgressLedger:
    def test_resume_banks_progress(self):
        progress = JobProgress()
        progress.record_stop(start_time=10.0, completed_ops=4, now=16.0)
        assert progress.completed_ops == 4
        assert progress.elapsed_local == pytest.approx(6.0)
        assert progress.first_placement_time == 10.0

    def test_resume_accumulates_across_segments(self):
        progress = JobProgress()
        progress.record_stop(start_time=0.0, completed_ops=2, now=5.0)
        progress.record_stop(start_time=20.0, completed_ops=7, now=24.0)
        assert progress.completed_ops == 7  # absolute, not incremental
        assert progress.elapsed_local == pytest.approx(9.0)
        assert progress.first_placement_time == 0.0


class TestFrontLayerProgress:
    @staticmethod
    def chain_dag():
        # GHZ chain with alternating QPUs: every CX is remote, sequentially
        # dependent, so the DAG is a 7-operation path.
        circuit = ghz(8)
        mapping = {q: q % 2 for q in range(8)}
        return RemoteDAG(circuit, mapping)

    def test_snapshot_reports_progress(self):
        front = FrontLayer(self.chain_dag())
        snap = front.snapshot()
        assert snap["total"] == 7
        assert snap["completed"] == 0
        assert snap["ready"] == 1

    def test_fast_forward_credits_in_dependency_order(self):
        front = FrontLayer(self.chain_dag())
        credited = front.fast_forward(3, finish_time=5.0)
        assert credited == 3
        assert front.completed == 3
        assert not front.done
        assert front.last_finish == 5.0

    def test_fast_forward_caps_at_dag_size(self):
        front = FrontLayer(self.chain_dag())
        credited = front.fast_forward(100, finish_time=5.0)
        assert credited == 7
        assert front.done


class EvictEverything(PreemptionPolicy):
    """Test policy: evict every running job at every decision point."""

    name = "evict-everything"

    def decide(self, view):
        return [PreemptRequest(r.job_id) for r in view.running]


class FirstPlacementOnly:
    """Placement wrapper: only circuits below a qubit bound ever place."""

    def __init__(self, inner, max_qubits):
        self.inner = inner
        self.max_qubits = max_qubits

    def place(self, circuit, cloud, seed=None, context=None):
        if circuit.num_qubits > self.max_qubits:
            raise MappingError("denied by test placement gate")
        return self.inner.place(circuit, cloud, seed=seed, context=context)


class TestSimulatorIntegration:
    def test_deadline_rescue_saves_the_expiring_job(self):
        simulator = make_simulator(
            contended_cloud(),
            admission_policy=QueueingDeadline(max_delay=10.0),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )
        results = simulator.run_stream([ghz(24), ghz(24)], [0.0, 1.0], seed=1)
        first, second = sorted(results, key=lambda r: r.arrival_time)
        # Without preemption the second job expires (pinned in
        # test_admission.py); the rescue evicts the first instead.
        assert second.outcome == JobOutcome.COMPLETED
        assert second.placement_time == pytest.approx(6.0)  # deadline - horizon
        assert first.outcome == JobOutcome.COMPLETED
        assert first.num_preemptions == 1

    def test_resume_credits_banked_work(self):
        simulator = make_simulator(
            contended_cloud(),
            admission_policy=QueueingDeadline(max_delay=10.0),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )
        results = simulator.run_stream([ghz(24), ghz(24)], [0.0, 1.0], seed=1)
        first, second = sorted(results, key=lambda r: r.arrival_time)
        # ghz(24) needs 23.1 units of work.  The first job runs [0, 6), is
        # evicted, resumes when the second completes (29.1), and finishes
        # after its remaining 17.1 units: no work is redone.
        assert second.completion_time == pytest.approx(29.1)
        assert first.completion_time == pytest.approx(46.2)
        assert first.wasted_time == 0.0
        # Its queueing delay still measures the wait for the first placement.
        assert first.placement_time == 0.0

    def test_stranded_preempted_outcome(self):
        # A job evicted by the policy whose re-placement then keeps failing
        # must end the run reported as outcome="preempted", not crash it.
        gate = FirstPlacementOnly(CloudQCPlacement(), 8)
        simulator = MultiTenantSimulator(
            contended_cloud(),
            placement_algorithm=gate,
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            preemption_policy=EvictEverything(),
        )

        original_place = gate.place
        placed_once = []

        def place_once(circuit, cloud, seed=None, context=None):
            if circuit.num_qubits == 8 and placed_once:
                raise MappingError("denied after first placement")
            result = original_place(circuit, cloud, seed=seed, context=context)
            if circuit.num_qubits == 8:
                placed_once.append(True)
            return result

        gate.place = place_once
        results = simulator.run_stream([ghz(8), ghz(4)], [0.0, 1.0], seed=1)
        stranded = [r for r in results if r.circuit_name == "ghz_n8"][0]
        small = [r for r in results if r.circuit_name == "ghz_n4"][0]
        assert small.outcome == JobOutcome.COMPLETED
        assert stranded.outcome == JobOutcome.PREEMPTED
        assert stranded.num_preemptions >= 1
        assert stranded.placement_time == 0.0  # it did run once
        assert stranded.queueing_delay == 0.0  # waited 0 for first placement
        assert math.isnan(stranded.completion_time)
        assert stranded.dropped_time is not None
        assert stranded.wasted_time > 0.0  # everything it ran is lost


class EvictBigOnce(PreemptionPolicy):
    """Test policy: evict the first running 24-qubit job it sees, once."""

    name = "evict-big-once"

    def reset(self):
        self.fired = False

    def decide(self, view):
        if self.fired:
            return []
        victims = [r for r in view.running if r.num_qubits == 24]
        if not victims:
            return []
        self.fired = True
        return [PreemptRequest(victims[0].job_id)]


class TestMidRoundEviction:
    def test_in_flight_round_is_not_banked(self):
        """Regression: EPR successes are applied optimistically at round
        *start* with a future finish time; a job evicted while that round is
        still in flight lost its qubits before the round completed, so the
        sampled op must not enter the resume ledger."""
        from repro.multitenant.cluster_sim import _EventDrivenBatch

        # ghz(24) spans both QPUs with one remote op; p=1.0 samples it
        # successful the moment the round starts at t=0 (round ends at
        # t=10, op finish at 10.2).  The t=5 arrival triggers a mid-round
        # decision point that evicts it exactly once.
        simulator = make_simulator(
            contended_cloud(epr_success_probability=1.0),
            preemption_policy=EvictBigOnce(),
        )
        batch = _EventDrivenBatch.from_circuits(
            simulator, [ghz(24), ghz(4)], [0.0, 5.0], seed=1
        )
        results = batch.execute()
        assert all(r.completed for r in results)
        big = [r for r in results if r.circuit_name == "ghz_n24"][0]
        assert big.num_preemptions == 1
        # The op was in flight at the eviction instant: nothing banked, so
        # the resumed job re-earns it in a fresh round.
        assert batch.progress[big.job_id].completed_ops == 0

    def test_disabled_policy_never_builds_a_view(self, monkeypatch):
        """The default path must not even construct the decision view: that
        is the structural guarantee behind 'free when disabled' (a timing
        A/B against the same binary cannot pin this)."""
        from repro.multitenant import cluster_sim as sim_module

        def forbidden(self, now):
            raise AssertionError("view built under NeverPreempt")

        monkeypatch.setattr(
            sim_module._EventDrivenBatch, "_cluster_view", forbidden
        )
        simulator = make_simulator(contended_cloud())
        results = simulator.run_stream([ghz(24), ghz(8)], [0.0, 1.0], seed=1)
        assert all(r.completed for r in results)


class EnabledNoOp(PreemptionPolicy):
    """Enabled hook that never acts: must be bit-identical to NeverPreempt."""

    name = "enabled-noop"

    def decide(self, view):
        return []


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


SCHEDULERS = [
    CloudQCScheduler,
    GreedyScheduler,
    AverageScheduler,
    RandomScheduler,
]


class TestNeverPreemptBitIdentity:
    """The preemption machinery must not move a single bit of the default
    path: NeverPreempt (disabled hook) and an enabled-but-inert policy both
    reproduce the PR-4 results exactly, for every network scheduler, in
    batch and stream mode."""

    @staticmethod
    def _run(policy, scheduler_cls, arrivals, seed=7):
        # Realign the process-global job counter: scheduler tiebreaks read
        # job-id strings, so comparable runs must mint identical ids.
        job_module._job_counter = itertools.count()
        cloud = QuantumCloud(
            CloudTopology.line(4),
            computing_qubits_per_qpu=16,
            communication_qubits_per_qpu=4,
            epr_success_probability=0.9,
        )
        simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=scheduler_cls(),
            batch_manager=fifo_batch_manager(),
            preemption_policy=policy,
        )
        circuits = [ghz(24), ising(34), ghz(16), ghz(24)]
        return simulator.run_stream(circuits, arrivals, seed=seed)

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_stream_mode_bit_identical(self, scheduler_cls):
        arrivals = [0.0, 11.0, 25.0, 40.0]
        default = self._run(None, scheduler_cls, arrivals)
        never = self._run(NeverPreempt(), scheduler_cls, arrivals)
        noop = self._run(EnabledNoOp(), scheduler_cls, arrivals)
        assert [result_key(r) for r in default] == [result_key(r) for r in never]
        assert [result_key(r) for r in default] == [result_key(r) for r in noop]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_batch_mode_bit_identical(self, scheduler_cls):
        arrivals = [0.0, 0.0, 0.0, 0.0]
        default = self._run(None, scheduler_cls, arrivals)
        never = self._run(NeverPreempt(), scheduler_cls, arrivals)
        noop = self._run(EnabledNoOp(), scheduler_cls, arrivals)
        assert [result_key(r) for r in default] == [result_key(r) for r in never]
        assert [result_key(r) for r in default] == [result_key(r) for r in noop]

    def test_golden_stream_default_cloud_with_explicit_never_preempt(self):
        # The exact pinned numbers of test_admission.py's golden stream, now
        # with the preemption machinery explicitly constructed.
        cloud = make_default_cloud(seed=7)
        simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            preemption_policy=NeverPreempt(),
        )
        results = simulator.run_stream(
            [ghz(24), ising(34), ghz(16)], [0.0, 40.0, 80.0], seed=2
        )
        got = [
            (r.circuit_name, r.placement_time, r.completion_time)
            for r in results
        ]
        assert got == [
            ("ghz_n24", 0.0, pytest.approx(23.1)),
            ("ising_n34", 40.0, pytest.approx(66.0)),
            ("ghz_n16", 80.0, pytest.approx(95.1)),
        ]
        assert sum(r.num_preemptions for r in results) == 0

    def test_golden_batch_contended_with_explicit_never_preempt(self):
        # Pinned batch numbers from test_cluster_sim.TestGoldenBatchResults.
        simulator = MultiTenantSimulator(
            contended_cloud(),
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=priority_batch_manager(),
            preemption_policy=NeverPreempt(),
        )
        results = simulator.run_batch([ghz(24), ghz(24)], seed=1)
        ordered = sorted(results, key=lambda r: r.placement_time)
        assert [r.placement_time for r in ordered] == pytest.approx([0.0, 23.1])
        assert [r.completion_time for r in ordered] == pytest.approx([23.1, 46.2])

    def test_golden_stream_contended_priority_with_explicit_never_preempt(self):
        # Pinned numbers from test_admission.test_golden_stream_contended_priority.
        cloud = contended_cloud(epr_success_probability=0.5)
        simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=priority_batch_manager(),
            preemption_policy=NeverPreempt(),
        )
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
