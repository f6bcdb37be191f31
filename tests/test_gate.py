"""Tests for the gate model."""

import pytest

from repro.circuits import Gate, GateKind, classify_gate, two_qubit_pairs


class TestGateConstruction:
    def test_basic_single_qubit_gate(self):
        gate = Gate("h", (0,))
        assert gate.name == "h"
        assert gate.qubits == (0,)
        assert gate.kind is GateKind.SINGLE_QUBIT
        assert gate.num_qubits == 1

    def test_name_is_lowercased(self):
        assert Gate("CX", (0, 1)).name == "cx"

    def test_two_qubit_gate_kind(self):
        gate = Gate("cx", (0, 1))
        assert gate.is_two_qubit
        assert not gate.is_single_qubit
        assert not gate.is_measurement

    def test_measurement_kind(self):
        assert Gate("measure", (3,)).is_measurement

    def test_params_are_floats(self):
        gate = Gate("rz", (0,), (1,))
        assert gate.params == (1.0,)
        assert isinstance(gate.params[0], float)

    def test_empty_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("h", ())

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            Gate("h", (-1,))

    def test_one_operand_two_qubit_gate_rejected(self):
        with pytest.raises(ValueError, match=r"'cx' needs 2 qubit operands, got 1"):
            Gate("cx", (0,))

    def test_three_operand_two_qubit_gate_rejected(self):
        with pytest.raises(ValueError, match=r"'cz' needs 2 qubit operands, got 3"):
            Gate("cz", (0, 1, 2))

    def test_gate_is_hashable_and_equal(self):
        assert Gate("cx", (0, 1)) == Gate("cx", (0, 1))
        assert hash(Gate("cx", (0, 1))) == hash(Gate("cx", (0, 1)))
        assert Gate("cx", (0, 1)) != Gate("cx", (1, 0))


class TestClassification:
    @pytest.mark.parametrize("name", ["h", "x", "rz", "t", "sdg", "u3"])
    def test_known_single_qubit_names(self, name):
        assert classify_gate(name, 1) is GateKind.SINGLE_QUBIT

    @pytest.mark.parametrize("name", ["cx", "cz", "swap", "rzz", "cp"])
    def test_known_two_qubit_names(self, name):
        assert classify_gate(name, 2) is GateKind.TWO_QUBIT

    def test_unknown_gate_falls_back_to_operand_count(self):
        assert classify_gate("mygate", 2) is GateKind.TWO_QUBIT
        assert classify_gate("mygate", 1) is GateKind.SINGLE_QUBIT

    def test_barrier_kind(self):
        assert classify_gate("barrier", 3) is GateKind.BARRIER


class TestRemap:
    def test_remap_changes_mapped_qubits(self):
        gate = Gate("cx", (0, 1))
        remapped = gate.remap({0: 5, 1: 9})
        assert remapped.qubits == (5, 9)
        assert remapped.name == "cx"

    def test_remap_keeps_unmapped_qubits(self):
        gate = Gate("cx", (0, 1))
        assert gate.remap({0: 4}).qubits == (4, 1)

    def test_remap_preserves_params(self):
        gate = Gate("rz", (2,), (0.7,))
        assert gate.remap({2: 0}).params == (0.7,)


class TestTwoQubitPairs:
    def test_pairs_are_sorted_and_filtered(self):
        gates = [Gate("h", (0,)), Gate("cx", (3, 1)), Gate("cz", (0, 2))]
        assert list(two_qubit_pairs(gates)) == [(1, 3), (0, 2)]

    def test_no_two_qubit_gates(self):
        assert list(two_qubit_pairs([Gate("h", (0,))])) == []
