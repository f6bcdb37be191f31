"""Tests for the extension modules: exhaustive placement, arrival processes,
and the variational circuit generators."""

import math

import numpy as np
import pytest

from repro.circuits import InteractionGraph, QuantumCircuit
from repro.circuits.library import get_circuit, hardware_efficient_ansatz, qaoa
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
    uniform_arrivals,
)
from repro.placement import (
    CloudQCPlacement,
    ExhaustivePlacement,
    MappingError,
    get_placement_algorithm,
    optimal_communication_cost,
)


@pytest.fixture
def tiny_cloud() -> QuantumCloud:
    topology = CloudTopology.line(3)
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=4,
        communication_qubits_per_qpu=2,
        epr_success_probability=0.5,
    )


class TestExhaustivePlacement:
    def test_finds_zero_cost_when_circuit_fits_one_qpu(self, tiny_cloud):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        cost, _ = optimal_communication_cost(circuit, tiny_cloud)
        assert cost == 0.0

    def test_optimal_splits_chain_at_single_edge(self, tiny_cloud):
        # 8-qubit chain on 4-qubit QPUs: the optimum cuts exactly one edge.
        circuit = QuantumCircuit(8)
        for q in range(7):
            circuit.cx(q, q + 1)
        placement = ExhaustivePlacement().place(circuit, tiny_cloud)
        assert placement.num_remote_operations() == 1
        assert placement.communication_cost(tiny_cloud) == 1.0

    def test_cloudqc_matches_optimal_on_small_chain(self, tiny_cloud):
        circuit = QuantumCircuit(8)
        for q in range(7):
            circuit.cx(q, q + 1)
        optimal_cost, _ = optimal_communication_cost(circuit, tiny_cloud)
        heuristic = CloudQCPlacement().place(circuit, tiny_cloud, seed=1)
        assert heuristic.communication_cost(tiny_cloud) == pytest.approx(optimal_cost)

    def test_heuristics_never_beat_optimal(self, tiny_cloud):
        circuit = qaoa(8, layers=1, seed=5)
        optimal_cost, _ = optimal_communication_cost(circuit, tiny_cloud)
        heuristic = CloudQCPlacement().place(circuit, tiny_cloud, seed=1)
        assert heuristic.communication_cost(tiny_cloud) >= optimal_cost - 1e-9

    def test_size_limit_enforced(self, tiny_cloud):
        with pytest.raises(MappingError):
            ExhaustivePlacement(max_qubits=4).place(QuantumCircuit(6), tiny_cloud)

    def test_registered_in_registry(self):
        assert get_placement_algorithm("exhaustive").name == "exhaustive"

    def test_capacity_respected(self, tiny_cloud):
        circuit = QuantumCircuit(10)
        for q in range(9):
            circuit.cx(q, q + 1)
        placement = ExhaustivePlacement().place(circuit, tiny_cloud)
        usage = placement.qubits_per_qpu()
        for qpu, used in usage.items():
            assert used <= tiny_cloud.qpu(qpu).computing_capacity


class TestArrivalProcesses:
    def test_poisson_arrivals_are_increasing(self):
        arrivals = poisson_arrivals(50, rate=0.1, seed=1)
        assert len(arrivals) == 50
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_poisson_mean_gap_matches_rate(self):
        arrivals = poisson_arrivals(4000, rate=0.5, seed=2)
        gaps = np.diff([0.0] + arrivals)
        assert np.mean(gaps) == pytest.approx(2.0, rel=0.1)

    def test_poisson_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_arrivals(5, rate=0.0)
        with pytest.raises(ValueError):
            poisson_arrivals(-1, rate=1.0)

    def test_uniform_arrivals(self):
        assert uniform_arrivals(3, 10.0, start=5.0) == [5.0, 15.0, 25.0]
        with pytest.raises(ValueError):
            uniform_arrivals(3, -1.0)

    def test_bursty_arrivals_group_into_bursts(self):
        arrivals = bursty_arrivals(6, burst_size=3, burst_gap=100.0)
        assert arrivals[:3] == [0.0, 0.0, 0.0]
        assert arrivals[3:] == [100.0, 100.0, 100.0]

    def test_bursty_with_jitter_is_sorted(self):
        arrivals = bursty_arrivals(10, burst_size=4, burst_gap=50.0, jitter=1.0, seed=3)
        assert arrivals == sorted(arrivals)

    def test_trace_arrivals_rebases(self):
        # Raw epoch-style timestamps in submission order.
        trace = [1_000_000.0, 1_000_020.0, 1_000_050.0]
        assert trace_arrivals(trace) == [0.0, 20.0, 50.0]

    def test_trace_arrivals_scales_and_offsets(self):
        assert trace_arrivals([100.0, 101.0, 104.0], start=5.0, time_scale=10.0) == [
            5.0,
            15.0,
            45.0,
        ]

    def test_trace_arrivals_rejects_unsorted(self):
        # Out-of-order timestamps are a parsing bug upstream, not a workload.
        with pytest.raises(ValueError, match="not sorted"):
            trace_arrivals([1_000_050.0, 1_000_000.0, 1_000_020.0])

    def test_trace_arrivals_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            trace_arrivals([])

    def test_trace_arrivals_rejects_non_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            trace_arrivals([0.0, math.nan, 2.0])
        with pytest.raises(ValueError, match="not finite"):
            trace_arrivals([0.0, math.inf])

    def test_trace_arrivals_edge_cases(self):
        with pytest.raises(ValueError):
            trace_arrivals([1.0, 2.0], time_scale=0.0)
        with pytest.raises(ValueError):
            trace_arrivals([1.0, 2.0], time_scale=math.nan)

    def test_poisson_and_uniform_reject_non_finite_parameters(self):
        with pytest.raises(ValueError):
            poisson_arrivals(3, rate=math.nan)
        with pytest.raises(ValueError):
            poisson_arrivals(3, rate=math.inf)
        with pytest.raises(ValueError):
            uniform_arrivals(3, interval=math.nan)
        with pytest.raises(ValueError):
            uniform_arrivals(3, interval=math.inf)

    def test_arrivals_drive_the_cluster_simulator(self, default_cloud):
        from repro.circuits.library import ghz
        from repro.multitenant import MultiTenantSimulator, fifo_batch_manager
        from repro.scheduling import CloudQCScheduler

        circuits = [ghz(16), ghz(16), ghz(16)]
        arrivals = poisson_arrivals(3, rate=0.01, seed=4)
        simulator = MultiTenantSimulator(
            default_cloud,
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
        )
        results = simulator.run_stream(circuits, arrivals, seed=1)
        assert len(results) == 3
        assert all(r.placement_time >= r.arrival_time for r in results)


class TestVariationalCircuits:
    def test_qaoa_structure(self):
        circuit = qaoa(12, layers=2, seed=3)
        assert circuit.num_qubits == 12
        # Two layers touch the same edges twice.
        interactions = circuit.two_qubit_interactions()
        assert all(weight == 2 for weight in interactions.values())

    def test_qaoa_invalid_arguments(self):
        with pytest.raises(ValueError):
            qaoa(1)
        with pytest.raises(ValueError):
            qaoa(4, layers=0)
        with pytest.raises(ValueError):
            qaoa(4, edge_probability=2.0)

    def test_hea_entanglers(self):
        linear = hardware_efficient_ansatz(8, layers=2, entangler="linear")
        circular = hardware_efficient_ansatz(8, layers=2, entangler="circular")
        assert circular.num_two_qubit_gates == linear.num_two_qubit_gates + 2
        with pytest.raises(ValueError):
            hardware_efficient_ansatz(8, entangler="full")

    def test_registry_names(self):
        assert get_circuit("qaoa_n10").num_qubits == 10
        assert get_circuit("hea_n10").num_qubits == 10

    def test_qaoa_placement_pipeline(self, default_cloud):
        circuit = qaoa(40, layers=1, seed=9)
        placement = CloudQCPlacement().place(circuit, default_cloud, seed=1)
        assert placement.respects_capacity(default_cloud)
        interaction = InteractionGraph.from_circuit(circuit)
        assert placement.num_remote_operations() <= interaction.total_weight()
