"""Tests for remote-operation priority functions."""

import pytest

from repro.circuits import QuantumCircuit
from repro.scheduling import (
    RemoteDAG,
    apply_priorities,
    longest_path_priorities,
    uniform_priorities,
)


@pytest.fixture
def chain_remote_dag() -> RemoteDAG:
    """Four remote gates in a strict chain across two QPUs."""
    circuit = QuantumCircuit(2)
    for _ in range(4):
        circuit.cx(0, 1)
    return RemoteDAG(circuit, {0: 0, 1: 1})


@pytest.fixture
def diamond_remote_dag() -> RemoteDAG:
    """A fork-join (diamond) of remote gates."""
    circuit = QuantumCircuit(4)
    circuit.cx(0, 2)   # root
    circuit.cx(0, 3)   # branch a
    circuit.cx(1, 2)   # branch b
    circuit.cx(2, 3)   # join (depends on root via q2 and branches via q2/q3)
    return RemoteDAG(circuit, {0: 0, 1: 0, 2: 1, 3: 1})


class TestLongestPath:
    def test_chain_priorities_count_down(self, chain_remote_dag):
        priorities = longest_path_priorities(chain_remote_dag)
        ordered = [priorities[n] for n in sorted(priorities)]
        assert ordered == [3, 2, 1, 0]

    def test_matches_dag_stored_priorities(self, diamond_remote_dag):
        priorities = longest_path_priorities(diamond_remote_dag)
        for node_id, priority in priorities.items():
            assert diamond_remote_dag.operation(node_id).priority == priority

    def test_root_has_highest_priority(self, diamond_remote_dag):
        priorities = longest_path_priorities(diamond_remote_dag)
        root = min(priorities)  # node 0 is the first remote gate
        assert priorities[root] == max(priorities.values())


class TestAlternativePriorities:
    def test_uniform_is_all_zero(self, chain_remote_dag):
        assert set(uniform_priorities(chain_remote_dag).values()) == {0}

    def test_apply_priorities_overwrites(self, chain_remote_dag):
        apply_priorities(chain_remote_dag, uniform_priorities(chain_remote_dag))
        assert all(op.priority == 0 for op in chain_remote_dag)
