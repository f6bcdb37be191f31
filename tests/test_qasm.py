"""Tests for the OpenQASM 2.0 subset reader/writer."""

import math

import pytest

from repro.circuits import QasmError, QuantumCircuit, parse_qasm, to_qasm

SIMPLE_PROGRAM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
measure q[1] -> c[1];
"""


class TestParsing:
    def test_parse_simple_program(self):
        circuit = parse_qasm(SIMPLE_PROGRAM)
        assert circuit.num_qubits == 3
        assert [g.name for g in circuit] == ["h", "cx", "rz", "measure"]

    def test_parameter_expressions(self):
        circuit = parse_qasm(SIMPLE_PROGRAM)
        rz = circuit.gates[2]
        assert rz.params[0] == pytest.approx(math.pi / 2)

    def test_comments_are_ignored(self):
        program = "qreg q[1];\n// a comment\nh q[0]; // trailing\n"
        circuit = parse_qasm(program)
        assert circuit.num_gates == 1

    def test_multiple_registers_are_flattened(self):
        program = "qreg a[2]; qreg b[2]; cx a[1],b[0];"
        circuit = parse_qasm(program)
        assert circuit.num_qubits == 4
        assert circuit.gates[0].qubits == (1, 2)

    def test_barrier_is_skipped(self):
        program = "qreg q[2]; h q[0]; barrier q[0],q[1]; h q[1];"
        assert parse_qasm(program).num_gates == 2

    def test_missing_register_raises(self):
        with pytest.raises(QasmError):
            parse_qasm("h q[0];")

    def test_conditional_raises(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1]; creg c[1]; if (c==1) x q[0];")

    def test_bad_parameter_expression_raises(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1]; rz(import) q[0];")

    def test_two_qubit_gate_with_one_operand_raises(self):
        with pytest.raises(QasmError, match=r"2 qubit operands, got 1.*'cx q\[0\]'"):
            parse_qasm("qreg q[2]; cx q[0];")


class TestRoundTrip:
    def test_round_trip_preserves_structure(self, vqe_like_circuit):
        text = to_qasm(vqe_like_circuit)
        parsed = parse_qasm(text)
        assert parsed.num_qubits == vqe_like_circuit.num_qubits
        assert [g.name for g in parsed] == [g.name for g in vqe_like_circuit]
        assert [g.qubits for g in parsed] == [g.qubits for g in vqe_like_circuit]

    def test_round_trip_preserves_parameters(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.125, 0)
        circuit.cp(0.5, 0, 1)
        parsed = parse_qasm(to_qasm(circuit))
        assert parsed.gates[0].params == (0.125,)
        assert parsed.gates[1].params == (0.5,)

    def test_measurement_round_trip(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure_all()
        parsed = parse_qasm(to_qasm(circuit))
        assert parsed.num_measurements == 2

    def test_writer_emits_headers(self, bell_circuit):
        text = to_qasm(bell_circuit)
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text


class TestFileLoading:
    def test_load_qasm_file(self, tmp_path):
        from repro.circuits import load_qasm_file

        path = tmp_path / "bell.qasm"
        path.write_text(SIMPLE_PROGRAM)
        circuit = load_qasm_file(str(path), name="bell")
        assert circuit.name == "bell"
        assert circuit.num_qubits == 3
