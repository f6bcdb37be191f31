"""Circuit substrate: gates, circuits, interaction graphs, QASM."""

from .gate import Gate, GateKind, classify_gate, two_qubit_pairs
from .circuit import QuantumCircuit
from .interaction_graph import InteractionGraph, quotient_adjacency
from .qasm import QasmError, load_qasm_file, parse_qasm, to_qasm
from .characteristics import (
    PAPER_CHARACTERISTICS,
    CircuitCharacteristics,
    characterize,
)

__all__ = [
    "CircuitCharacteristics",
    "Gate",
    "GateKind",
    "InteractionGraph",
    "PAPER_CHARACTERISTICS",
    "QasmError",
    "QuantumCircuit",
    "characterize",
    "classify_gate",
    "load_qasm_file",
    "parse_qasm",
    "quotient_adjacency",
    "to_qasm",
    "two_qubit_pairs",
]
