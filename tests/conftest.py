"""Shared fixtures for the CloudQC reproduction test suite."""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.library import get_circuit
from repro.analysis import default_cloud as make_default_cloud
from repro.cloud import CloudTopology, QuantumCloud


@pytest.fixture
def bell_circuit() -> QuantumCircuit:
    """Two-qubit Bell-pair circuit."""
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def vqe_like_circuit() -> QuantumCircuit:
    """The 4-qubit VQE-style circuit of Fig. 1 (structure only)."""
    circuit = QuantumCircuit(4, name="vqe4")
    circuit.h(0)
    circuit.h(2)
    circuit.h(3)
    circuit.cx(1, 2)
    circuit.cx(0, 1)
    circuit.rz(0.5, 1)
    circuit.h(1)
    circuit.cx(2, 3)
    circuit.h(2)
    circuit.y(3)
    return circuit


@pytest.fixture
def chain_circuit() -> QuantumCircuit:
    """Eight-qubit CX chain (GHZ-like): one clean bisection exists."""
    circuit = QuantumCircuit(8, name="chain8")
    circuit.h(0)
    for qubit in range(7):
        circuit.cx(qubit, qubit + 1)
    return circuit


@pytest.fixture
def small_cloud() -> QuantumCloud:
    """Four QPUs in a line, 4 computing / 2 communication qubits each."""
    topology = CloudTopology.line(4)
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=4,
        communication_qubits_per_qpu=2,
        epr_success_probability=0.5,
    )


@pytest.fixture
def default_cloud() -> QuantumCloud:
    """The paper's default cloud with a fixed seed (20 QPUs, 20/5 qubits)."""
    return make_default_cloud(seed=7)


@pytest.fixture
def ring_cloud() -> QuantumCloud:
    """Six QPUs in a ring with ample capacity."""
    topology = CloudTopology.ring(6)
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=10,
        communication_qubits_per_qpu=3,
        epr_success_probability=0.3,
    )


@pytest.fixture(scope="session")
def knn_circuit() -> QuantumCircuit:
    return get_circuit("knn_n67")


@pytest.fixture(scope="session")
def adder_circuit() -> QuantumCircuit:
    return get_circuit("adder_n64")
