"""Tests for the multi-tenant cluster simulator."""

import math

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.library import get_circuit, ghz, ising
from repro.analysis import default_cloud as make_default_cloud
from repro.cloud import QPU, CloudTopology, QuantumCloud
from repro.multitenant import (
    ClusterSimulationError,
    MultiTenantSimulator,
    fifo_batch_manager,
    poisson_arrivals,
    priority_batch_manager,
)
from repro.placement import CloudQCPlacement, RandomPlacement
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


class TestBatchExecution:
    def test_all_jobs_complete(self, default_cloud):
        circuits = [ghz(24), ising(34), get_circuit("qft_n29"), ghz(16)]
        results = make_simulator(default_cloud).run_batch(circuits, seed=1)
        assert len(results) == 4
        assert all(r.completion_time > 0 for r in results)
        assert all(r.job_completion_time >= 0 for r in results)

    def test_template_cloud_is_not_mutated(self, default_cloud):
        circuits = [ghz(24), ising(34)]
        make_simulator(default_cloud).run_batch(circuits, seed=1)
        assert default_cloud.total_computing_available() == 400

    def test_empty_batch(self, default_cloud):
        assert make_simulator(default_cloud).run_batch([], seed=1) == []

    def test_oversized_circuit_rejected(self):
        topology = CloudTopology.line(2)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=4)
        with pytest.raises(ClusterSimulationError):
            make_simulator(cloud).run_batch([ghz(16)], seed=1)

    def test_results_are_seeded(self, default_cloud):
        circuits = [ghz(24), ising(34), ghz(16)]
        a = make_simulator(default_cloud).run_batch(circuits, seed=4)
        b = make_simulator(default_cloud).run_batch(circuits, seed=4)
        assert [r.completion_time for r in a] == [r.completion_time for r in b]

    def test_contention_slows_jobs_down(self):
        # A cloud that can run one 24-qubit job at a time: two identical jobs
        # must serialise, so the second one's JCT includes queueing delay.
        circuits = [ghz(24), ghz(24)]
        results = make_simulator(contended_cloud()).run_batch(circuits, seed=1)
        delays = sorted(r.queueing_delay for r in results)
        assert delays[0] == 0.0
        assert delays[1] > 0.0

    def test_local_only_jobs_have_no_remote_operations(self, default_cloud):
        results = make_simulator(default_cloud).run_batch([ghz(8), ghz(10)], seed=1)
        assert all(r.num_remote_operations == 0 for r in results)
        assert all(r.num_qpus_used == 1 for r in results)


class TestGoldenBatchResults:
    """Exact batch-mode numbers, pinned when the simulator moved onto the
    event engine: pure batch mode must stay bit-identical to the original
    round-stepped loop so the Figs. 14-17 numbers do not move."""

    def test_default_cloud_batch_values(self):
        cloud = make_default_cloud(seed=7)
        results = make_simulator(cloud).run_batch(
            [ghz(24), ising(34), ghz(16)], seed=4
        )
        by_name = {r.circuit_name: r for r in results}
        assert by_name["ghz_n24"].completion_time == pytest.approx(23.1)
        assert by_name["ising_n34"].completion_time == pytest.approx(36.0)
        assert by_name["ghz_n16"].completion_time == pytest.approx(15.1)
        assert all(r.placement_time == 0.0 for r in results)

    def test_contended_batch_values(self):
        results = make_simulator(contended_cloud()).run_batch(
            [ghz(24), ghz(24)], seed=1
        )
        ordered = sorted(results, key=lambda r: r.placement_time)
        assert [r.placement_time for r in ordered] == pytest.approx([0.0, 23.1])
        assert [r.completion_time for r in ordered] == pytest.approx([23.1, 46.2])


class TestArrivalTimes:
    def test_incoming_job_mode_respects_arrivals(self, default_cloud):
        circuits = [ghz(16), ghz(16)]
        results = make_simulator(default_cloud, fifo_batch_manager()).run_batch(
            circuits, seed=1, arrival_times=[0.0, 500.0]
        )
        by_arrival = sorted(results, key=lambda r: r.arrival_time)
        assert by_arrival[1].placement_time >= 500.0

    def test_arrival_times_length_mismatch(self, default_cloud):
        with pytest.raises(ValueError):
            make_simulator(default_cloud).run_batch(
                [ghz(8)], seed=1, arrival_times=[0.0, 1.0]
            )

    def test_negative_arrival_times_rejected(self, default_cloud):
        # Non-finite times too: NaN passes a `< 0` check, and a job arriving
        # at inf would be reported completed at inf.
        for time in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                make_simulator(default_cloud).run_batch(
                    [ghz(8)], seed=1, arrival_times=[time]
                )

    def test_arrival_starvation_regression(self):
        """A job arriving while EPR rounds are in flight is placed at its
        arrival event when capacity is free -- it must not wait for another
        job's completion (the bug of the original round-stepped loop)."""
        cloud = contended_cloud(epr_success_probability=0.02)
        simulator = make_simulator(cloud, fifo_batch_manager())
        # ghz(24) spans both QPUs and keeps EPR rounds in flight; ghz(4) fits
        # into the free computing qubits and needs no network at all.
        results = simulator.run_stream(
            [ghz(24), ghz(4)], arrival_times=[0.0, 25.0], seed=11
        )
        big, small = sorted(results, key=lambda r: r.arrival_time)
        # Premise: the big job is still running when the small one arrives
        # (its EPR rounds tick every 10 units, so t=25 is mid-round).
        assert big.completion_time > small.arrival_time
        # The fix: placed exactly at the arrival event, not at big's completion.
        assert small.placement_time == small.arrival_time == 25.0
        assert small.num_remote_operations == 0
        assert small.completion_time < big.completion_time

    def test_stream_matches_run_batch_with_same_arrivals(self, default_cloud):
        circuits = [ghz(16), ghz(24), ghz(16)]
        arrivals = poisson_arrivals(3, rate=0.01, seed=5)
        simulator = make_simulator(default_cloud, fifo_batch_manager())
        stream = simulator.run_stream(circuits, arrivals, seed=2)
        batch = simulator.run_batch(circuits, seed=2, arrival_times=arrivals)
        assert [(r.circuit_name, r.placement_time, r.completion_time) for r in stream] == [
            (r.circuit_name, r.placement_time, r.completion_time) for r in batch
        ]

    def test_stream_requires_arrivals(self, default_cloud):
        with pytest.raises(ValueError):
            make_simulator(default_cloud).run_stream([ghz(8)], None, seed=1)


class TestEventGuards:
    def test_max_events_guard(self):
        cloud = contended_cloud(epr_success_probability=0.5)
        simulator = make_simulator(cloud, max_events=3)
        with pytest.raises(ClusterSimulationError, match="3 events"):
            simulator.run_batch([ghz(24), ghz(24)], seed=1)

    @pytest.mark.parametrize("placer", [RandomPlacement(), CloudQCPlacement()])
    def test_job_needing_a_qpu_without_communication_qubits_fails_at_once(
        self, placer
    ):
        # Six qubits on two 3-qubit QPUs: every placement cuts the CX chain,
        # and QPU 1 has no communication qubits to run the cut gate with.
        cloud = QuantumCloud(
            CloudTopology.line(2), qpus={0: QPU(0, 3, 2), 1: QPU(1, 3, 0)}
        )
        chain = QuantumCircuit(6, name="chain6")
        for qubit in range(5):
            chain.cx(qubit, qubit + 1)
        simulator = MultiTenantSimulator(
            cloud, placer, CloudQCScheduler(), max_events=20_000
        )
        with pytest.raises(
            ClusterSimulationError,
            match=r"job job-\d+: remote operation \d+ needs QPU 1, which has "
            "no communication qubits",
        ):
            simulator.run_batch([chain], seed=1)


class TestBatchOrderingEffects:
    def test_priority_and_fifo_both_finish_everything(self, default_cloud):
        circuits = [get_circuit("qft_n29"), ising(66), ghz(32), ising(34)]
        priority_results = make_simulator(default_cloud).run_batch(circuits, seed=2)
        fifo_results = make_simulator(default_cloud, fifo_batch_manager()).run_batch(
            circuits, seed=2
        )
        assert len(priority_results) == len(fifo_results) == 4

    def test_run_batch_unseeded_draws_fresh_entropy(self):
        # seed=None must not degrade to a fixed seed: repeated unseeded runs
        # should sample different EPR outcomes.  Three runs of a contended
        # workload agreeing by chance is astronomically unlikely (each
        # remote op takes a geometric number of rounds).
        cloud = contended_cloud(epr_success_probability=0.3)
        simulator = make_simulator(cloud)
        circuits = [ghz(24), ghz(24), ghz(24)]
        outcomes = {
            tuple(r.completion_time for r in simulator.run_batch(circuits))
            for _ in range(3)
        }
        assert len(outcomes) > 1


class TestIncrementalPlacementFastPath:
    """The failure-signature skip and shared PlacementContext (PR 4) must be
    bit-identical to from-scratch recomputation for any seeded run."""

    @staticmethod
    def _result_key(result):
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

    @staticmethod
    def _aligned_run(incremental, circuits, arrivals, seed):
        # Network-scheduler tiebreaks read job-id strings, so comparable runs
        # must mint identical ids: realign the process-global counter.
        import itertools

        from repro.cloud import job as job_module

        job_module._job_counter = itertools.count()
        topology = CloudTopology.line(4)
        cloud = QuantumCloud(
            topology,
            computing_qubits_per_qpu=16,
            communication_qubits_per_qpu=4,
            epr_success_probability=0.9,
        )
        simulator = make_simulator(
            cloud,
            batch_manager=fifo_batch_manager(),
            incremental_placement=incremental,
        )
        return simulator.run_stream(circuits, arrivals, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_stream_bit_identical_with_and_without_fast_path(self, seed):
        from repro.multitenant import generate_cluster_trace

        trace = generate_cluster_trace(
            60,
            num_tenants=20,
            base_rate=0.2,
            seed=seed,
            names=["ghz_n12", "ghz_n16", "qft_n16", "ghz_n20"],
        )
        fast = self._aligned_run(True, trace.circuits, trace.arrival_times, seed)
        full = self._aligned_run(False, trace.circuits, trace.arrival_times, seed)
        assert [self._result_key(r) for r in fast] == [
            self._result_key(r) for r in full
        ]

    def test_batch_mode_bit_identical_with_and_without_fast_path(self):
        circuits = [ghz(24), ising(34), ghz(16), ghz(24)]
        fast = self._aligned_run(True, circuits, [0.0] * 4, seed=4)
        full = self._aligned_run(False, circuits, [0.0] * 4, seed=4)
        assert [self._result_key(r) for r in fast] == [
            self._result_key(r) for r in full
        ]

    def test_failure_signature_bookkeeping(self):
        from repro.multitenant.cluster_sim import _EventDrivenBatch

        cloud = contended_cloud()
        simulator = make_simulator(cloud, batch_manager=fifo_batch_manager())
        # Two jobs fill the cloud; the third (24 qubits > 16+16-32 free) waits
        # until a release, so its failed attempt leaves a signature behind.
        batch = _EventDrivenBatch.from_circuits(
            simulator, [ghz(24), ghz(8), ghz(24)], [0.0, 0.0, 0.0], seed=3
        )
        results = batch.execute()
        assert len(results) == 3
        assert all(r.completed for r in results)
        # Every signature belongs to a job that eventually placed: placement
        # pops its entry, so nothing may linger after the run drains.
        assert batch.failure_signatures == {}

    def test_fast_path_skips_repeat_attempts(self, monkeypatch):
        """On an unchanged cloud, a failed job is re-attempted at most once."""
        from repro.multitenant import cluster_sim as sim_module
        from repro.multitenant.arrivals import uniform_arrivals

        attempts = []
        original = sim_module._EventDrivenBatch._try_place

        def spy(self, job, seed):
            attempts.append((job.job_id, self.cloud.resource_version))
            return original(self, job, seed)

        monkeypatch.setattr(sim_module._EventDrivenBatch, "_try_place", spy)
        cloud = contended_cloud()
        simulator = make_simulator(cloud, batch_manager=fifo_batch_manager())
        # A stream of arrivals while the cloud is busy: each new arrival
        # triggers a pass at an unchanged version, which must not re-run the
        # pipeline for the already-failed pending jobs.
        circuits = [ghz(24), ghz(24), ghz(24), ghz(24), ghz(24)]
        simulator.run_stream(circuits, uniform_arrivals(5, 4.0, start=0.0), seed=2)
        assert len(attempts) == len(set(attempts)), (
            "a (job, resource_version) pair was attempted twice despite an "
            "unchanged failure signature"
        )
