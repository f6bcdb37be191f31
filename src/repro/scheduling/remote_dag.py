"""Remote DAG: the dependency graph of inter-QPU gates (Sec. IV-C, Fig. 3b).

Given a circuit and a placement, keep only the two-qubit gates whose operands
sit on different QPUs and connect them by the dependency order inherited from
the full gate DAG (a remote gate depends on another remote gate if there is a
dependency path between them that passes only through local gates).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Set, Tuple

import networkx as nx

from ..circuits import QuantumCircuit


@dataclass
class RemoteOperation:
    """One inter-QPU two-qubit gate awaiting EPR-assisted execution."""

    node_id: int
    gate_index: int
    qubits: Tuple[int, int]
    qpus: Tuple[int, int]
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)
    priority: int = 0

    @property
    def qpu_pair(self) -> Tuple[int, int]:
        a, b = self.qpus
        return (a, b) if a <= b else (b, a)


class RemoteDAG:
    """Dependency DAG over the remote operations of one placed circuit."""

    def __init__(self, circuit: QuantumCircuit, mapping: Mapping[int, int]) -> None:
        self.circuit = circuit
        self.mapping = dict(mapping)
        self.operations: Dict[int, RemoteOperation] = {}
        self._build()
        self._assign_priorities()

    def _build(self) -> None:
        """One pass over the gates, which are already in topological order.

        ``reach[q]`` holds the remote operations visible at qubit ``q``'s
        latest output through local gates only -- what ``subgraph_closure``
        of the test-local gate DAG (``CircuitDAG`` in
        ``tests/test_execution_state_equivalence.py``) computes.  A remote
        gate depends on everything that reaches its operands and then
        becomes the only thing reaching them.
        """
        mapping = self.mapping
        operations = self.operations
        nothing: FrozenSet[int] = frozenset()
        reach: List[FrozenSet[int]] = [nothing] * self.circuit.num_qubits
        for gate_index, gate in enumerate(self.circuit.gates):
            qubits = gate.qubits
            if len(qubits) == 1:
                continue  # a one-operand gate is local and passes its reach on
            remote = False
            if gate.is_two_qubit:
                qpus = (mapping[qubits[0]], mapping[qubits[1]])
                remote = qpus[0] != qpus[1]
            incoming = reach[qubits[0]]
            for qubit in qubits[1:]:
                other = reach[qubit]
                if other is not incoming and other:
                    incoming = incoming | other if incoming else other
            if remote:
                node_id = len(operations)
                operations[node_id] = RemoteOperation(
                    node_id=node_id,
                    gate_index=gate_index,
                    qubits=(qubits[0], qubits[1]),
                    qpus=qpus,
                    predecessors=set(incoming),
                )
                for predecessor_id in incoming:
                    operations[predecessor_id].successors.add(node_id)
                incoming = frozenset((node_id,))
            for qubit in qubits:
                reach[qubit] = incoming

    def _assign_priorities(self) -> None:
        """Priority p_i = length (in edges) of the longest path to any leaf.

        Every edge runs from a lower to a higher node id (node ids follow
        gate order), so reverse id order visits successors first.
        """
        operations = self.operations
        for operation in reversed(operations.values()):
            if operation.successors:
                operation.priority = 1 + max(
                    operations[s].priority for s in operation.successors
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[RemoteOperation]:
        return iter(self.operations.values())

    def operation(self, node_id: int) -> RemoteOperation:
        return self.operations[node_id]

    @property
    def num_operations(self) -> int:
        return len(self.operations)

    def topological_order(self) -> List[int]:
        """Kahn order: ready operations FIFO, seeded and unlocked in id order."""
        in_degree = {i: len(op.predecessors) for i, op in self.operations.items()}
        ready = deque(sorted(i for i, d in in_degree.items() if d == 0))
        order: List[int] = []
        while ready:
            current = ready.popleft()
            order.append(current)
            for successor in sorted(self.operations[current].successors):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.operations):
            raise RuntimeError("remote DAG contains a cycle")
        return order

    def front_layer(self, completed: Set[int]) -> List[int]:
        """Remote operations whose predecessors have all completed."""
        return sorted(
            node_id
            for node_id, operation in self.operations.items()
            if node_id not in completed and operation.predecessors <= completed
        )

    def critical_path_length(self) -> int:
        """Number of operations on the longest dependency chain."""
        if not self.operations:
            return 0
        return 1 + max(op.priority for op in self.operations.values())

    def qpus_involved(self) -> Set[int]:
        involved: Set[int] = set()
        for operation in self.operations.values():
            involved.update(operation.qpus)
        return involved

    def operations_on_qpu(self, qpu_id: int) -> List[int]:
        return sorted(
            node_id
            for node_id, operation in self.operations.items()
            if qpu_id in operation.qpus
        )

    def to_networkx(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        for node_id, operation in self.operations.items():
            graph.add_node(
                node_id,
                gate_index=operation.gate_index,
                qpus=operation.qpus,
                priority=operation.priority,
            )
        for node_id, operation in self.operations.items():
            for successor in operation.successors:
                graph.add_edge(node_id, successor)
        return graph
