"""Quantum circuit container used throughout the CloudQC reproduction.

The circuit is an ordered list of :class:`~repro.circuits.gate.Gate` objects on
``num_qubits`` logical qubits.  It exposes the structural properties CloudQC's
placement and scheduling stages consume: gate counts, depth and the
two-qubit interaction multiset.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .gate import Gate, GateKind

_T = TypeVar("_T")


class QuantumCircuit:
    """An ordered sequence of gates on a fixed register of logical qubits."""

    def __init__(
        self,
        num_qubits: int,
        gates: Optional[Iterable[Gate]] = None,
        name: str = "circuit",
    ) -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        # Circuit-derived values (the gate tuple, depth, counts, and the
        # per-latency-model tables of the scheduling and scoring layers),
        # each computed on first use and all cleared by the next append.
        self._memo: Dict[Hashable, Any] = {}
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> None:
        """Append ``gate``, validating its qubit indices against the register."""
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise ValueError(
                    f"gate {gate} uses qubit {q} but circuit has "
                    f"{self.num_qubits} qubits"
                )
        self._gates.append(gate)
        self._memo.clear()

    def memo(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The circuit-derived value stored under ``key``, built on first use.

        The value lives until the next :meth:`append`, so it must be a pure
        function of the gate list (and of whatever ``key`` names, such as a
        latency model); callers must not mutate it.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> None:
        """Convenience wrapper: ``circuit.add("cx", 0, 1)``."""
        self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.append(gate)

    # Named helpers for the most common gates keep the circuit library readable.
    def h(self, qubit: int) -> None:
        self.add("h", qubit)

    def x(self, qubit: int) -> None:
        self.add("x", qubit)

    def y(self, qubit: int) -> None:
        self.add("y", qubit)

    def z(self, qubit: int) -> None:
        self.add("z", qubit)

    def t(self, qubit: int) -> None:
        self.add("t", qubit)

    def tdg(self, qubit: int) -> None:
        self.add("tdg", qubit)

    def rx(self, theta: float, qubit: int) -> None:
        self.add("rx", qubit, params=(theta,))

    def ry(self, theta: float, qubit: int) -> None:
        self.add("ry", qubit, params=(theta,))

    def rz(self, theta: float, qubit: int) -> None:
        self.add("rz", qubit, params=(theta,))

    def cx(self, control: int, target: int) -> None:
        self.add("cx", control, target)

    def cz(self, control: int, target: int) -> None:
        self.add("cz", control, target)

    def cp(self, theta: float, control: int, target: int) -> None:
        self.add("cp", control, target, params=(theta,))

    def rzz(self, theta: float, a: int, b: int) -> None:
        self.add("rzz", a, b, params=(theta,))

    def swap(self, a: int, b: int) -> None:
        self.add("swap", a, b)

    def measure(self, qubit: int) -> None:
        self.add("measure", qubit)

    def measure_all(self) -> None:
        for q in range(self.num_qubits):
            self.measure(q)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Tuple[Gate, ...]:
        gates = self._memo.get("gates")
        if gates is None:
            gates = self._memo["gates"] = tuple(self._gates)
        return gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    @property
    def num_two_qubit_gates(self) -> int:
        return self.memo(
            "num_two_qubit_gates",
            lambda: sum(1 for g in self._gates if g.is_two_qubit),
        )

    @property
    def num_single_qubit_gates(self) -> int:
        return sum(1 for g in self._gates if g.is_single_qubit)

    @property
    def num_measurements(self) -> int:
        return sum(1 for g in self._gates if g.is_measurement)

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names, mirroring the Qiskit convenience method."""
        counts: Dict[str, int] = defaultdict(int)
        for gate in self._gates:
            counts[gate.name] += 1
        return dict(counts)

    def depth(self, count_barriers: bool = False) -> int:
        """Circuit depth: the length of the longest qubit-dependency chain."""
        count_barriers = bool(count_barriers)

        def longest_chain() -> int:
            frontier = [0] * self.num_qubits
            for gate in self._gates:
                if gate.kind is GateKind.BARRIER and not count_barriers:
                    continue
                level = 1 + max(frontier[q] for q in gate.qubits)
                for q in gate.qubits:
                    frontier[q] = level
            return max(frontier, default=0)

        return self.memo(("depth", count_barriers), longest_chain)

    def two_qubit_interactions(self) -> Dict[Tuple[int, int], int]:
        """Multiset of qubit pairs connected by two-qubit gates (the D_ij matrix)."""
        return dict(self.interaction_counts())

    def interaction_counts(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """``((a, b), count)`` per qubit pair (``a < b``) of the two-qubit gates.

        Pairs appear in order of first use; memoized until the next append.
        A gate with more than two operands counts its first two.
        """

        def count() -> Tuple[Tuple[Tuple[int, int], int], ...]:
            interactions: Dict[Tuple[int, int], int] = defaultdict(int)
            for gate in self._gates:
                if gate.is_two_qubit:
                    a, b = sorted(gate.qubits[:2])
                    interactions[(a, b)] += 1
            return tuple(interactions.items())

        return self.memo("interaction_counts", count)

    def active_qubits(self) -> Tuple[int, ...]:
        """Qubits touched by at least one gate, in increasing order."""
        seen = set()
        for gate in self._gates:
            seen.update(gate.qubits)
        return tuple(sorted(seen))

    @property
    def size(self) -> int:
        """Number of logical qubits (the resource footprint used by placement)."""
        return self.num_qubits

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        return QuantumCircuit(
            self.num_qubits, self._gates, name=name or self.name
        )

    def remap_qubits(self, mapping: Dict[int, int]) -> "QuantumCircuit":
        """Return a circuit with qubits relabelled according to ``mapping``."""
        targets = [mapping.get(q, q) for q in range(self.num_qubits)]
        width = max(targets) + 1 if targets else self.num_qubits
        remapped = QuantumCircuit(width, name=self.name)
        for gate in self._gates:
            remapped.append(gate.remap(mapping))
        return remapped

    def without_measurements(self) -> "QuantumCircuit":
        return QuantumCircuit(
            self.num_qubits,
            (g for g in self._gates if not g.is_measurement),
            name=self.name,
        )

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Concatenate ``other`` after ``self`` on a register wide enough for both."""
        width = max(self.num_qubits, other.num_qubits)
        combined = QuantumCircuit(width, self._gates, name=self.name)
        combined.extend(other.gates)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={self.num_gates}, depth={self.depth()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits and self._gates == list(other.gates)
        )

    def __hash__(self) -> int:
        return hash((self.num_qubits, self.gates))
