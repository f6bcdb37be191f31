"""Tests for the network executor and the round model it shares with the
cluster simulator."""

import pytest

from repro.circuits import QuantumCircuit
from repro.cloud import QPU, CloudTopology, QuantumCloud
from repro.cloud.job import job_counter_state
from repro.multitenant import ClusterSimulationError, MultiTenantSimulator
from repro.placement import Placement, PlacementAlgorithm
from repro.scheduling import AverageScheduler, CloudQCScheduler, GreedyScheduler
from repro.sim import DEFAULT_LATENCY, NetworkExecutor, local_execution_time


class FixedMapping(PlacementAlgorithm):
    """Places every circuit with one given mapping."""

    name = "fixed"

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def place(self, circuit, cloud, seed=None, context=None):
        return Placement(circuit, dict(self.mapping), algorithm=self.name)


@pytest.fixture
def two_qpu_cloud() -> QuantumCloud:
    topology = CloudTopology.line(2)
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=4,
        communication_qubits_per_qpu=2,
        epr_success_probability=1.0,
    )


@pytest.fixture
def remote_pair_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2, name="pair")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


class TestLocalExecutionTime:
    def test_critical_path_only(self, bell_circuit):
        assert local_execution_time(bell_circuit) == pytest.approx(1.1)

    def test_parallel_gates_do_not_add(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.h(q)
        assert local_execution_time(circuit) == pytest.approx(0.1)


class TestDeterministicExecution:
    def test_single_remote_gate_timing(self, two_qpu_cloud, remote_pair_circuit):
        executor = NetworkExecutor(two_qpu_cloud, CloudQCScheduler())
        result = executor.execute(
            remote_pair_circuit, {0: 0, 1: 1}, seed=1
        )
        assert executor.execute_single(
            remote_pair_circuit, {0: 0, 1: 1}, seed=1
        ) == result
        # With p=1 the single remote gate needs one EPR round + CX + measure.
        expected = DEFAULT_LATENCY.epr_preparation + 1.0 + 5.0
        assert result.completion_time == pytest.approx(expected)
        assert result.num_remote_operations == 1
        assert result.epr_rounds == 1

    def test_local_job_completes_in_local_time(self, two_qpu_cloud, bell_circuit):
        executor = NetworkExecutor(two_qpu_cloud, CloudQCScheduler())
        result = executor.execute(bell_circuit, {0: 0, 1: 0}, seed=1)
        assert result.completion_time == pytest.approx(1.1)
        assert result.epr_rounds == 0

    def test_serial_remote_gates_take_serial_rounds(self, two_qpu_cloud):
        circuit = QuantumCircuit(2)
        for _ in range(3):
            circuit.cx(0, 1)
        executor = NetworkExecutor(two_qpu_cloud, CloudQCScheduler())
        result = executor.execute(circuit, {0: 0, 1: 1}, seed=1)
        assert result.epr_rounds == 3
        assert result.completion_time == pytest.approx(3 * 10.0 + 6.0)

    def test_start_time_offsets_completion(self, two_qpu_cloud, remote_pair_circuit):
        simulator = MultiTenantSimulator(
            two_qpu_cloud, FixedMapping({0: 0, 1: 1}), CloudQCScheduler()
        )
        (result,) = simulator.run_batch(
            [remote_pair_circuit], seed=1, arrival_times=[100.0]
        )
        assert result.placement_time == 100.0
        assert result.completion_time == pytest.approx(116.0)
        assert result.epr_rounds == 1

    def test_execution_leaves_the_job_counter_still(
        self, two_qpu_cloud, remote_pair_circuit
    ):
        # Later run_batch calls take their job ids from this counter, and
        # the schedulers break ties on those ids.
        before = job_counter_state()
        result = NetworkExecutor(two_qpu_cloud, CloudQCScheduler()).execute(
            remote_pair_circuit, {0: 0, 1: 1}, seed=1
        )
        assert result.job_id == "job-0"
        assert job_counter_state() == before


class TestProbabilisticExecution:
    def test_lower_probability_takes_longer_on_average(self, remote_pair_circuit):
        topology = CloudTopology.line(2)
        cloud = QuantumCloud(topology, communication_qubits_per_qpu=1)
        slow = NetworkExecutor(cloud, AverageScheduler(), epr_success_probability=0.1)
        fast = NetworkExecutor(cloud, AverageScheduler(), epr_success_probability=0.9)
        slow_mean = sum(
            slow.execute(remote_pair_circuit, {0: 0, 1: 1}, seed=s).completion_time
            for s in range(10)
        )
        fast_mean = sum(
            fast.execute(remote_pair_circuit, {0: 0, 1: 1}, seed=s).completion_time
            for s in range(10)
        )
        assert slow_mean > fast_mean

    def test_redundancy_helps_under_low_probability(self):
        # One remote gate, plenty of communication qubits: the CloudQC policy
        # fires several attempts per round and finishes sooner than a policy
        # restricted to one pair per round.
        topology = CloudTopology.line(2)
        cloud = QuantumCloud(topology, communication_qubits_per_qpu=5)
        circuit = QuantumCircuit(2)
        for _ in range(5):
            circuit.cx(0, 1)
        redundant = NetworkExecutor(cloud, CloudQCScheduler(), epr_success_probability=0.2)
        capped = NetworkExecutor(
            cloud, CloudQCScheduler(max_redundancy=1), epr_success_probability=0.2
        )
        redundant_mean = sum(
            redundant.execute(circuit, {0: 0, 1: 1}, seed=s).completion_time
            for s in range(8)
        )
        capped_mean = sum(
            capped.execute(circuit, {0: 0, 1: 1}, seed=s).completion_time
            for s in range(8)
        )
        assert redundant_mean < capped_mean

    def test_seeded_execution_is_reproducible(self, default_cloud, knn_circuit):
        from repro.placement import CloudQCPlacement

        placement = CloudQCPlacement().place(knn_circuit, default_cloud, seed=1)
        executor = NetworkExecutor(default_cloud, CloudQCScheduler())
        a = executor.execute(knn_circuit, placement.mapping, seed=9)
        b = executor.execute(knn_circuit, placement.mapping, seed=9)
        assert a.completion_time == b.completion_time


class TestMultiJobExecution:
    """Jobs placed side by side share the communication qubits each round."""

    def test_competing_jobs_share_communication_qubits(self, two_qpu_cloud):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        simulator = MultiTenantSimulator(
            two_qpu_cloud, FixedMapping({0: 0, 1: 1}), AverageScheduler()
        )
        results = simulator.run_batch([circuit] * 4, seed=1)
        assert len(results) == 4
        assert {result.placement_time for result in results} == {0.0}
        # Only 2 communication qubits per QPU: four single-gate jobs cannot all
        # finish in the first round.
        finish_times = sorted(r.completion_time for r in results)
        assert finish_times[-1] > finish_times[0]

    def test_greedy_starves_competitors(self):
        # Two chains of remote gates competing for one communication qubit pair.
        topology = CloudTopology.line(2)
        cloud = QuantumCloud(
            topology, communication_qubits_per_qpu=1, epr_success_probability=1.0
        )
        chain = QuantumCircuit(2)
        for _ in range(3):
            chain.cx(0, 1)
        simulator = MultiTenantSimulator(
            cloud, FixedMapping({0: 0, 1: 1}), GreedyScheduler()
        )
        greedy_results = simulator.run_batch([chain, chain], seed=1)
        # With a single pair per round the two jobs' six gates serialise.
        assert max(r.epr_rounds for r in greedy_results) == 6


class TestUnrunnableOperations:
    """An operation whose QPU has no communication qubits can never be
    granted a pair; execution must say so at once, not after max_events."""

    @pytest.mark.parametrize(
        "qpus",
        [
            {0: QPU(0, 4, 2), 1: QPU(1, 4, 0)},  # zero communication capacity
            {0: QPU(0, 4, 2)},  # QPU 1 is a topology node outside the fleet
        ],
        ids=["zero-capacity", "off-fleet"],
    )
    def test_fails_fast_naming_job_op_and_qpu(self, qpus, remote_pair_circuit):
        cloud = QuantumCloud(CloudTopology.line(2), qpus=qpus)
        executor = NetworkExecutor(cloud, CloudQCScheduler())
        with pytest.raises(
            ClusterSimulationError,
            match=r"job job-0: remote operation 0 needs QPU 1",
        ):
            executor.execute(remote_pair_circuit, {0: 0, 1: 1}, seed=1)

    def test_local_jobs_still_run_beside_a_zero_capacity_qpu(self, bell_circuit):
        cloud = QuantumCloud(
            CloudTopology.line(2), qpus={0: QPU(0, 4, 2), 1: QPU(1, 4, 0)}
        )
        executor = NetworkExecutor(cloud, CloudQCScheduler())
        result = executor.execute(bell_circuit, {0: 1, 1: 1}, seed=1)
        assert result.epr_rounds == 0

