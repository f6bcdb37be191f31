#!/usr/bin/env python3
"""Bring your own cloud and circuit: the library as a research sandbox.

Shows the lower-level API surface: building a custom topology (a 3x3 grid of
heterogeneous QPUs), loading a circuit from OpenQASM text, inspecting its
interaction graph and remote DAG, and comparing two placement strategies on
that custom cloud.

Run with::

    python examples/custom_cloud_and_circuit.py
"""

from __future__ import annotations

from repro.circuits import InteractionGraph, parse_qasm
from repro.cloud import QPU, CloudTopology, QuantumCloud
from repro.placement import CloudQCPlacement, RandomPlacement
from repro.scheduling import CloudQCScheduler, RemoteDAG
from repro.sim import NetworkExecutor

QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[12];
creg c[12];
h q[0];
""" + "\n".join(
    f"cx q[{a}],q[{b}];" for a, b in
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
     (9, 10), (10, 11), (0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)]
)


def build_cloud() -> QuantumCloud:
    """A 3x3 grid of QPUs where the corner QPUs are smaller."""
    topology = CloudTopology.grid(3, 3)
    qpus = {}
    for qpu_id in topology.qpu_ids:
        is_corner = qpu_id in (0, 2, 6, 8)
        qpus[qpu_id] = QPU(
            qpu_id=qpu_id,
            computing_capacity=3 if is_corner else 6,
            communication_capacity=2,
        )
    return QuantumCloud(topology, qpus=qpus, epr_success_probability=0.4)


def main() -> None:
    circuit = parse_qasm(QASM, name="custom_ladder")
    print(f"Loaded {circuit.name}: {circuit.num_qubits} qubits, "
          f"{circuit.num_two_qubit_gates} two-qubit gates, depth {circuit.depth()}")

    interaction = InteractionGraph.from_circuit(circuit)
    print(f"Interaction graph: {interaction.num_edges} edges, "
          f"total weight {interaction.total_weight()}, "
          f"center qubit q{interaction.graph_center()}")

    cloud = build_cloud()
    print(f"\nCustom cloud: {cloud.num_qpus} QPUs on a 3x3 grid, "
          f"{cloud.total_computing_capacity()} computing qubits in total")

    for placer in (CloudQCPlacement(), RandomPlacement()):
        placement = placer.place(circuit, cloud, seed=1)
        remote_dag = RemoteDAG(circuit, placement.mapping)
        executor = NetworkExecutor(cloud, CloudQCScheduler())
        result = executor.execute(circuit, placement.mapping, seed=1)
        print(f"\n{placer.name} placement:")
        print(f"  QPUs used        : {placement.qpus_used()}")
        print(f"  remote operations: {placement.num_remote_operations()}")
        print(f"  remote DAG depth : {remote_dag.critical_path_length()}")
        print(f"  completion time  : {result.completion_time:.1f} CX units")


if __name__ == "__main__":
    main()
