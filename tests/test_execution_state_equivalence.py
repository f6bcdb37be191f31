"""A/B equivalence of a placed job's execution-state builders and their originals.

The ``ref_*`` builders below are copies of the gate-walk formulations that
the memoized, one-pass versions replaced: the remote DAG built from the full
gate DAG (the test-local ``CircuitDAG``) through ``subgraph_closure`` with
Kahn-order priorities, and the per-gate walks of ``estimate_execution_time``,
``communication_cost`` and ``local_execution_time``.  Hypothesis drives both
over random circuits mapped onto 1-5 QPUs, and asserts equal results: every
``RemoteOperation`` field in node order, and every float with ``==``.  The
circuits mix one-qubit gates (named and unknown-name), ``cx``, measurements,
barriers over 2..n qubits, unknown-name three-operand gates (which
``classify_gate`` makes two-qubit), and ``h`` and ``measure`` over two
operands.  The last two are not two-qubit gates yet have two operands, so a
walk that branched on the gate kind instead of the operand count would
diverge on them.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Gate, GateKind, QuantumCircuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.placement import estimate_execution_time
from repro.placement.scoring import communication_cost
from repro.scheduling import RemoteDAG
from repro.sim import DEFAULT_LATENCY, LatencyModel, local_execution_time


# ----------------------------------------------------------------------
# Reference: the gate-walk builders (kept verbatim, comments trimmed)
# ----------------------------------------------------------------------
class CircuitDAG:
    """The gate-dependency DAG ``RefRemoteDAG`` builds on (nodes are gate
    indices), reduced to the predecessor sets ``subgraph_closure`` reads."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.predecessors: Dict[int, Set[int]] = {}
        self._build()

    def _build(self):
        last_on_qubit: Dict[int, int] = {}
        for index, gate in enumerate(self.circuit.gates):
            self.predecessors[index] = set()
            for qubit in gate.qubits:
                previous = last_on_qubit.get(qubit)
                if previous is not None and previous != index:
                    self.predecessors[index].add(previous)
                last_on_qubit[qubit] = index

    def subgraph_closure(self, keep) -> Dict[int, Set[int]]:
        """``node -> kept ancestors reachable through nodes not in keep``."""
        keep_set = set(keep)
        closure: Dict[int, Set[int]] = {}
        reaching: Dict[int, Set[int]] = {}
        # Every edge runs from a lower to a higher gate index, so gate order
        # is a topological order.
        for index, predecessors in self.predecessors.items():
            incoming: Set[int] = set()
            for pred in predecessors:
                incoming |= reaching[pred]
            if index in keep_set:
                closure[index] = incoming
                reaching[index] = {index}
            else:
                reaching[index] = incoming
        return closure


class RefRemoteDAG:
    def __init__(self, circuit, mapping):
        self.circuit = circuit
        self.mapping = dict(mapping)
        self.operations: Dict[int, dict] = {}
        self._build(CircuitDAG(circuit))
        self._assign_priorities()

    def _build(self, dag):
        remote_gate_indices: List[int] = []
        for index, gate in enumerate(self.circuit.gates):
            if not gate.is_two_qubit:
                continue
            qpu_a = self.mapping[gate.qubits[0]]
            qpu_b = self.mapping[gate.qubits[1]]
            if qpu_a != qpu_b:
                remote_gate_indices.append(index)
        closure = dag.subgraph_closure(remote_gate_indices)
        gate_to_node = {
            gate_index: node_id
            for node_id, gate_index in enumerate(remote_gate_indices)
        }
        for gate_index in remote_gate_indices:
            node_id = gate_to_node[gate_index]
            gate = self.circuit.gates[gate_index]
            self.operations[node_id] = dict(
                node_id=node_id,
                gate_index=gate_index,
                qubits=(gate.qubits[0], gate.qubits[1]),
                qpus=(self.mapping[gate.qubits[0]], self.mapping[gate.qubits[1]]),
                predecessors=set(),
                successors=set(),
                priority=0,
            )
        for gate_index in remote_gate_indices:
            node_id = gate_to_node[gate_index]
            for predecessor_gate in closure[gate_index]:
                predecessor_id = gate_to_node[predecessor_gate]
                if predecessor_id == node_id:
                    continue
                self.operations[node_id]["predecessors"].add(predecessor_id)
                self.operations[predecessor_id]["successors"].add(node_id)

    def _assign_priorities(self):
        for node_id in reversed(self.topological_order()):
            operation = self.operations[node_id]
            if not operation["successors"]:
                operation["priority"] = 0
            else:
                operation["priority"] = 1 + max(
                    self.operations[s]["priority"] for s in operation["successors"]
                )

    def topological_order(self) -> List[int]:
        in_degree = {i: len(op["predecessors"]) for i, op in self.operations.items()}
        ready_set = sorted(i for i, d in in_degree.items() if d == 0)
        order: List[int] = []
        while ready_set:
            current = ready_set.pop(0)
            order.append(current)
            for successor in sorted(self.operations[current]["successors"]):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready_set.append(successor)
        assert len(order) == len(self.operations)
        return order


def ref_estimate_execution_time(
    circuit, mapping, cloud, latency=DEFAULT_LATENCY, epr_success_probability=None
) -> float:
    probability = (
        cloud.epr_success_probability
        if epr_success_probability is None
        else epr_success_probability
    )
    distances = cloud.topology.distance_table()
    remote_latency: Dict[int, float] = {}
    ready: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
    for gate in circuit:
        qubits = gate.qubits
        if len(qubits) == 2:
            start, other = ready[qubits[0]], ready[qubits[1]]
            if other > start:
                start = other
        else:
            start = max(ready[q] for q in qubits)
        if gate.kind is GateKind.TWO_QUBIT:
            qpu_a = mapping[qubits[0]]
            qpu_b = mapping[qubits[1]]
            if qpu_a == qpu_b:
                duration = latency.two_qubit_gate
            else:
                hops = max(distances[qpu_a][qpu_b], 1)
                duration = remote_latency.get(hops)
                if duration is None:
                    duration = remote_latency[hops] = latency.expected_remote_gate_latency(
                        probability, parallel_attempts=1, hops=hops
                    )
        else:
            duration = latency.gate_latency(gate)
        finish = start + duration
        for q in qubits:
            ready[q] = finish
    return max(ready.values(), default=0.0)


def ref_communication_cost(circuit, mapping, cloud) -> float:
    distances = cloud.topology.distance_table()
    cost = 0.0
    for gate in circuit:
        if gate.is_two_qubit:
            qpu_a, qpu_b = mapping[gate.qubits[0]], mapping[gate.qubits[1]]
            if qpu_a != qpu_b:
                cost += distances[qpu_a][qpu_b]
    return cost


def ref_local_execution_time(circuit, latency=DEFAULT_LATENCY) -> float:
    ready: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
    for gate in circuit.gates:
        start = max(ready[q] for q in gate.qubits)
        finish = start + latency.gate_latency(gate)
        for q in gate.qubits:
            ready[q] = finish
    return max(ready.values(), default=0.0)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
TOPOLOGIES = (
    CloudTopology.line(5),
    CloudTopology.ring(6),
    CloudTopology.grid(3, 3),
    CloudTopology.random(8, 0.3, seed=4),
)
LATENCIES = (DEFAULT_LATENCY, LatencyModel(0.3, 2.0, 4.0, 7.0))

#: node_id, gate_index, qubits, qpus, predecessors, successors, priority.
OperationFields = Tuple[
    int, int, Tuple[int, int], Tuple[int, int], Set[int], Set[int], int
]


@st.composite
def circuits(draw, max_qubits: int = 9, max_gates: int = 60) -> QuantumCircuit:
    num_qubits = draw(st.integers(2, max_qubits))
    kinds = ["one", "unknown-one", "cx", "measure", "barrier", "wide-h", "wide-measure"]
    if num_qubits >= 3:
        kinds.append("three")
    circuit = QuantumCircuit(num_qubits, name="hypothesis")
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("one", "unknown-one", "measure"):
            name = {"measure": "measure", "unknown-one": "myone"}.get(kind)
            name = name or draw(st.sampled_from("hxt"))
            circuit.add(name, draw(st.integers(0, num_qubits - 1)))
            continue
        width = {"cx": 2, "three": 3, "wide-h": 2, "wide-measure": 2}.get(kind)
        width = width or draw(st.integers(2, num_qubits))
        qubits = draw(st.permutations(range(num_qubits)))[:width]
        name = {
            "cx": "cx",
            "three": "mygate",
            "barrier": "barrier",
            "wide-h": "h",  # a named one-qubit gate: SINGLE_QUBIT over two operands
            "wide-measure": "measure",
        }[kind]
        circuit.append(Gate(name, tuple(qubits)))
    return circuit


@st.composite
def placed_circuits(draw):
    """A circuit, a cloud, and three mappings of it onto 1-5 of the cloud's QPUs."""
    circuit = draw(circuits())
    topology = draw(st.sampled_from(TOPOLOGIES))
    cloud = QuantumCloud(
        topology, epr_success_probability=draw(st.sampled_from((0.3, 0.55, 1.0)))
    )
    mappings = []
    for _ in range(3):
        used = draw(st.permutations(topology.qpu_ids))[: draw(st.integers(1, 5))]
        mappings.append(
            {q: draw(st.sampled_from(used)) for q in range(circuit.num_qubits)}
        )
    return circuit, cloud, mappings


def fields(dag: RemoteDAG) -> List[OperationFields]:
    return [
        (
            node_id,
            op.gate_index,
            op.qubits,
            op.qpus,
            op.predecessors,
            op.successors,
            op.priority,
        )
        for node_id, op in dag.operations.items()
    ]


def ref_fields(dag: RefRemoteDAG) -> List[OperationFields]:
    return [
        (
            node_id,
            op["gate_index"],
            op["qubits"],
            op["qpus"],
            op["predecessors"],
            op["successors"],
            op["priority"],
        )
        for node_id, op in dag.operations.items()
    ]


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(placed=placed_circuits())
def test_remote_dag_matches_closure_build(placed):
    circuit, _, mappings = placed
    for mapping in mappings:
        dag = RemoteDAG(circuit, mapping)
        reference = RefRemoteDAG(circuit, mapping)
        assert fields(dag) == ref_fields(reference)
        assert dag.topological_order() == reference.topological_order()


@settings(max_examples=150, deadline=None)
@given(
    placed=placed_circuits(),
    latency=st.sampled_from(LATENCIES),
    epr=st.sampled_from((None, 0.2)),
)
def test_scoring_inputs_match_gate_walks(placed, latency, epr):
    circuit, cloud, mappings = placed
    # Each call after the first of a circuit reads the memoized tables.
    for mapping in mappings:
        assert estimate_execution_time(
            circuit, mapping, cloud, latency=latency, epr_success_probability=epr
        ) == ref_estimate_execution_time(
            circuit, mapping, cloud, latency=latency, epr_success_probability=epr
        )
        assert communication_cost(circuit, mapping, cloud) == ref_communication_cost(
            circuit, mapping, cloud
        )
    for model in LATENCIES:
        assert local_execution_time(circuit, model) == ref_local_execution_time(
            circuit, model
        )


def three_operand_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="three-operand")
    circuit.cx(0, 3)
    circuit.append(Gate("mygate", (0, 1, 2)))
    circuit.h(2)
    circuit.append(Gate("mygate", (2, 3, 1)))
    circuit.cx(1, 0)
    return circuit


def test_three_operand_gate_is_scored_like_the_gate_walk():
    circuit = three_operand_circuit()
    assert circuit.gates[1].kind is GateKind.TWO_QUBIT
    cloud = QuantumCloud(CloudTopology.line(5))
    mapping = {0: 0, 1: 2, 2: 2, 3: 4}
    expected = ref_estimate_execution_time(circuit, mapping, cloud)
    assert estimate_execution_time(circuit, mapping, cloud) == expected
    assert communication_cost(circuit, mapping, cloud) == ref_communication_cost(
        circuit, mapping, cloud
    )
    assert local_execution_time(circuit) == ref_local_execution_time(circuit)
    assert fields(RemoteDAG(circuit, mapping)) == ref_fields(
        RefRemoteDAG(circuit, mapping)
    )
