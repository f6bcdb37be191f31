"""Gate model for the CloudQC circuit substrate.

A gate is an immutable record of a named quantum operation applied to one or
two qubits (plus an optional classical parameter list).  CloudQC only needs the
*structure* of a circuit -- which qubits a gate touches, whether it is a one- or
two-qubit operation, and whether it is a measurement -- so the gate model is
deliberately lightweight and does not carry unitary matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Tuple


class GateKind(enum.Enum):
    """Coarse classification of a gate used by the latency and cost models."""

    SINGLE_QUBIT = "single_qubit"
    TWO_QUBIT = "two_qubit"
    MEASUREMENT = "measurement"
    BARRIER = "barrier"


#: Canonical single-qubit gate names recognised by the QASM subset parser.
SINGLE_QUBIT_GATES = frozenset(
    {
        "id",
        "x",
        "y",
        "z",
        "h",
        "s",
        "sdg",
        "t",
        "tdg",
        "sx",
        "sxdg",
        "rx",
        "ry",
        "rz",
        "u1",
        "u2",
        "u3",
        "u",
        "p",
        "reset",
    }
)

#: Canonical two-qubit gate names recognised by the QASM subset parser.
TWO_QUBIT_GATES = frozenset(
    {
        "cx",
        "cnot",
        "cz",
        "cy",
        "ch",
        "swap",
        "iswap",
        "crx",
        "cry",
        "crz",
        "cp",
        "cu1",
        "cu3",
        "rxx",
        "ryy",
        "rzz",
        "rzx",
        "ecr",
    }
)

#: Measurement-like operations.
MEASUREMENT_GATES = frozenset({"measure"})


def classify_gate(name: str, num_qubits: int) -> GateKind:
    """Classify a gate by its canonical name and operand count.

    The name takes precedence; unknown names fall back to the operand count so
    that user-defined gates still participate correctly in the dependency and
    interaction analyses.
    """
    lowered = name.lower()
    if lowered in MEASUREMENT_GATES:
        return GateKind.MEASUREMENT
    if lowered == "barrier":
        return GateKind.BARRIER
    if lowered in TWO_QUBIT_GATES:
        return GateKind.TWO_QUBIT
    if lowered in SINGLE_QUBIT_GATES:
        return GateKind.SINGLE_QUBIT
    if num_qubits >= 2:
        return GateKind.TWO_QUBIT
    return GateKind.SINGLE_QUBIT


@dataclass(frozen=True)
class Gate:
    """A single quantum operation.

    Attributes
    ----------
    name:
        Canonical lower-case gate name (``"cx"``, ``"h"``, ``"measure"`` ...).
    qubits:
        Tuple of logical qubit indices the gate acts on, in operand order.
    params:
        Optional tuple of real parameters (rotation angles etc.).  Parameters
        never influence placement or scheduling but are preserved so circuits
        round-trip through the QASM writer.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not self.qubits:
            raise ValueError(f"gate {self.name!r} must act on at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(
                f"gate {self.name!r} has duplicate qubit operands {self.qubits}"
            )
        for q in self.qubits:
            if q < 0:
                raise ValueError(f"gate {self.name!r} has negative qubit index {q}")
        # The placement walks rely on this: a one-operand gate is never of
        # two-qubit kind, so they branch on the operand count first.
        if self.name in TWO_QUBIT_GATES and len(self.qubits) != 2:
            raise ValueError(
                f"two-qubit gate {self.name!r} needs 2 qubit operands, "
                f"got {len(self.qubits)}"
            )
        # Classified once: scoring, the remote DAG and the latency model read
        # the kind of every gate on every placement attempt.  Not a field, so
        # equality, hashing and repr are unchanged.
        object.__setattr__(self, "_kind", classify_gate(self.name, len(self.qubits)))

    @property
    def kind(self) -> GateKind:
        """Coarse classification used by latency/cost models."""
        return self._kind

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        return self._kind is GateKind.TWO_QUBIT

    @property
    def is_single_qubit(self) -> bool:
        return self._kind is GateKind.SINGLE_QUBIT

    @property
    def is_measurement(self) -> bool:
        return self._kind is GateKind.MEASUREMENT

    def remap(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy of the gate with qubit indices remapped.

        Qubits absent from ``mapping`` keep their index.
        """
        return Gate(
            self.name,
            tuple(mapping.get(q, q) for q in self.qubits),
            self.params,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        operands = ", ".join(f"q{q}" for q in self.qubits)
        if self.params:
            args = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.name}({args}) {operands}"
        return f"{self.name} {operands}"


def two_qubit_pairs(gates: Iterable[Gate]) -> Iterable[Tuple[int, int]]:
    """Yield the (min, max) qubit pair of every two-qubit gate in ``gates``."""
    for gate in gates:
        if gate.is_two_qubit:
            a, b = gate.qubits[0], gate.qubits[1]
            yield (a, b) if a < b else (b, a)
