"""Tests for the QuantumCircuit container."""

import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.placement import estimate_execution_time
from repro.placement.scoring import communication_cost
from repro.sim import local_execution_time


class TestConstruction:
    def test_empty_circuit(self):
        circuit = QuantumCircuit(3)
        assert circuit.num_qubits == 3
        assert circuit.num_gates == 0
        assert circuit.depth() == 0

    def test_invalid_qubit_count(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_append_validates_register(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.append(Gate("h", (5,)))

    def test_construct_from_gates(self):
        gates = [Gate("h", (0,)), Gate("cx", (0, 1))]
        circuit = QuantumCircuit(2, gates)
        assert circuit.num_gates == 2
        assert circuit.gates == tuple(gates)

    def test_helper_methods_build_expected_gates(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 2)
        circuit.measure(1)
        names = [g.name for g in circuit]
        assert names == ["h", "cx", "rz", "measure"]


class TestCounting:
    def test_gate_counts(self, vqe_like_circuit):
        assert vqe_like_circuit.num_gates == 10
        assert vqe_like_circuit.num_two_qubit_gates == 3
        assert vqe_like_circuit.num_single_qubit_gates == 7

    def test_count_ops(self, bell_circuit):
        assert bell_circuit.count_ops() == {"h": 1, "cx": 1}

    def test_measure_all(self):
        circuit = QuantumCircuit(4)
        circuit.measure_all()
        assert circuit.num_measurements == 4


class TestDepth:
    def test_bell_depth(self, bell_circuit):
        assert bell_circuit.depth() == 2

    def test_parallel_gates_share_a_layer(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.h(q)
        assert circuit.depth() == 1

    def test_serial_chain_depth(self, chain_circuit):
        # H + 7 chained CX gates; the CX chain is fully serial.
        assert chain_circuit.depth() == 8

    def test_fig1_front_layer_depth(self, vqe_like_circuit):
        assert vqe_like_circuit.depth() == 5

    def test_memoized_structure_follows_appends(self, small_cloud):
        # depth(), num_two_qubit_gates, the gate tuple, the local critical
        # path, the interaction counts and the gate latency table are
        # memoized; append must reset them all.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.add("barrier", 0, 1, 2)
        mapping = {0: 0, 1: 1, 2: 3}
        gates = circuit.gates
        assert circuit.gates is gates
        assert (circuit.depth(), circuit.depth(count_barriers=True)) == (1, 2)
        assert circuit.num_two_qubit_gates == 1
        assert local_execution_time(circuit) == 1.0
        assert communication_cost(circuit, mapping, small_cloud) == 1.0
        # One hop at p = 0.5: (10 + 1 + 5) + one expected retry of 10.
        assert estimate_execution_time(circuit, mapping, small_cloud) == 26.0
        circuit.cx(1, 2)
        circuit.h(2)
        assert circuit.gates == gates + (Gate("cx", (1, 2)), Gate("h", (2,)))
        assert (circuit.depth(), circuit.depth(count_barriers=True)) == (3, 4)
        assert circuit.num_two_qubit_gates == 2
        assert local_execution_time(circuit) == 2.0 + 0.1
        assert communication_cost(circuit, mapping, small_cloud) == 1.0 + 2.0
        # Two hops: (20 + 1 + 5) + one expected retry of 2 * 10, then the h.
        expected = 26.0 + 46.0 + 0.1
        assert estimate_execution_time(circuit, mapping, small_cloud) == expected


class TestInteractions:
    def test_two_qubit_interactions_weights(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cz(1, 2)
        assert circuit.two_qubit_interactions() == {(0, 1): 2, (1, 2): 1}

    def test_active_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 3)
        assert circuit.active_qubits() == (0, 3)


class TestTransforms:
    def test_copy_is_independent(self, bell_circuit):
        clone = bell_circuit.copy()
        clone.x(0)
        assert clone.num_gates == bell_circuit.num_gates + 1

    def test_remap_qubits(self, bell_circuit):
        remapped = bell_circuit.remap_qubits({0: 1, 1: 0})
        assert remapped.gates[1].qubits == (1, 0)

    def test_without_measurements(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure_all()
        assert circuit.without_measurements().num_gates == 1

    def test_compose_concatenates(self, bell_circuit):
        other = QuantumCircuit(3)
        other.h(2)
        combined = bell_circuit.compose(other)
        assert combined.num_qubits == 3
        assert combined.num_gates == 3

    def test_equality_and_hash(self, bell_circuit):
        assert bell_circuit == bell_circuit.copy()
        assert hash(bell_circuit) == hash(bell_circuit.copy())
