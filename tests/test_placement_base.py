"""Tests for the Placement object and its cost model."""

import pytest

from repro.circuits import QuantumCircuit
from repro.placement import Placement, validate_placement


@pytest.fixture
def cross_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="cross")
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    circuit.cx(0, 2)
    circuit.cx(1, 3)
    circuit.cx(0, 2)
    return circuit


class TestStructure:
    def test_missing_qubits_rejected(self, cross_circuit):
        with pytest.raises(ValueError):
            Placement(circuit=cross_circuit, mapping={0: 0, 1: 0})

    def test_qpu_accessors(self, cross_circuit):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        assert placement.qpu_of(2) == 1
        assert placement.qpus_used() == [0, 1]
        assert placement.num_qpus_used == 2
        assert placement.qubits_per_qpu() == {0: 2, 1: 2}
        assert placement.qubits_on(1) == [2, 3]


class TestCosts:
    def test_remote_gates_and_count(self, cross_circuit):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        remote = placement.remote_gates()
        assert placement.num_remote_operations() == 3
        assert all(pair == (0, 1) or pair == (1, 0) for _, pair in remote)

    def test_all_local_has_zero_cost(self, cross_circuit, small_cloud):
        placement = Placement(cross_circuit, {q: 0 for q in range(4)})
        assert placement.num_remote_operations() == 0
        assert placement.communication_cost(small_cloud) == 0.0

    def test_communication_cost_scales_with_distance(self, cross_circuit, small_cloud):
        near = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        far = Placement(cross_circuit, {0: 0, 1: 0, 2: 3, 3: 3})
        assert far.communication_cost(small_cloud) == 3 * near.communication_cost(
            small_cloud
        )

    def test_remote_load_counts_both_endpoints(self, cross_circuit, small_cloud):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        load = placement.remote_load(small_cloud)
        assert load[0] == 3
        assert load[1] == 3
        assert load[2] == 0

    def test_remote_threshold_constraint(self, cross_circuit, small_cloud):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        assert placement.respects_remote_threshold(small_cloud, epsilon=3)
        assert not placement.respects_remote_threshold(small_cloud, epsilon=2)

    def test_respects_capacity(self, cross_circuit, small_cloud):
        fits = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        assert fits.respects_capacity(small_cloud)
        small_cloud.admit("other", {0: 0, 1: 0, 2: 0})
        crowded = Placement(cross_circuit, {q: 0 for q in range(4)})
        assert not crowded.respects_capacity(small_cloud)

    def test_remaining_qubits_after(self, cross_circuit, small_cloud):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        assert placement.remaining_qubits_after(small_cloud) == 16 - 4


class TestValidation:
    def test_validate_accepts_good_placement(self, cross_circuit, small_cloud):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        validate_placement(placement, small_cloud)

    def test_validate_rejects_unknown_qpu(self, cross_circuit, small_cloud):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 42})
        with pytest.raises(ValueError):
            validate_placement(placement, small_cloud)

    def test_validate_rejects_over_capacity(self, cross_circuit, small_cloud):
        small_cloud.admit("other", {0: 0, 1: 0, 2: 0})
        placement = Placement(cross_circuit, {q: 0 for q in range(4)})
        with pytest.raises(ValueError):
            validate_placement(placement, small_cloud)

    def test_helper_views(self, cross_circuit):
        placement = Placement(cross_circuit, {0: 0, 1: 0, 2: 1, 3: 1})
        assert placement.interaction_graph().total_weight() == 5
