"""Minimal OpenQASM 2.0 reader/writer.

The paper's workloads come from QASMBench, which ships OpenQASM 2.0 files.  We
replace PyTket with a small parser covering the subset those benchmarks use:
one quantum register, one classical register, standard-library gates, and
measurements.  Gate arguments may be arithmetic expressions of ``pi``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from .circuit import QuantumCircuit
from .gate import Gate

_COMMENT_RE = re.compile(r"//.*$", re.MULTILINE)
_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_OPERAND_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")


class QasmError(ValueError):
    """Raised when a QASM program cannot be parsed by the subset reader."""


def _safe_eval(expression: str) -> float:
    """Evaluate a numeric gate parameter expression (only pi, numbers, + - * /)."""
    allowed = set("0123456789.+-*/() epi")
    cleaned = expression.strip().replace("pi", str(math.pi))
    if not set(cleaned) <= allowed:
        raise QasmError(f"unsupported parameter expression: {expression!r}")
    try:
        return float(eval(cleaned, {"__builtins__": {}}, {}))  # noqa: S307
    except Exception as exc:  # pragma: no cover - defensive
        raise QasmError(f"cannot evaluate parameter {expression!r}") from exc


def parse_qasm(text: str, name: str = "qasm") -> QuantumCircuit:
    """Parse an OpenQASM 2.0 program into a :class:`QuantumCircuit`.

    All quantum registers are concatenated into one flat index space in
    declaration order.  ``barrier`` and classical-register bookkeeping are
    ignored; conditional gates (``if``) are not supported.
    """
    text = _COMMENT_RE.sub("", text)
    register_offsets: Dict[str, int] = {}
    total_qubits = 0
    for match in _QREG_RE.finditer(text):
        register_offsets[match.group(1)] = total_qubits
        total_qubits += int(match.group(2))
    if total_qubits == 0:
        raise QasmError("no quantum register declared")

    circuit = QuantumCircuit(total_qubits, name=name)
    statements = [s.strip() for s in text.split(";")]
    for statement in statements:
        statement = statement.strip()
        if not statement:
            continue
        lowered = statement.lower()
        if (
            lowered.startswith("openqasm")
            or lowered.startswith("include")
            or lowered.startswith("qreg")
            or lowered.startswith("creg")
            or lowered.startswith("barrier")
            or lowered.startswith("gate ")
            or lowered.startswith("{")
            or lowered.startswith("}")
        ):
            continue
        if lowered.startswith("if"):
            raise QasmError("conditional gates are not supported")
        gate = _parse_statement(statement, register_offsets)
        if gate is not None:
            circuit.append(gate)
    return circuit


def _parse_statement(
    statement: str, register_offsets: Dict[str, int]
) -> Optional[Gate]:
    params: Tuple[float, ...] = ()
    parameterised = re.match(r"(\w+)\s*\(([^)]*)\)\s*(.*)", statement, re.DOTALL)
    if parameterised:
        # Form: name(p1,p2) q[0],q[1]
        name = parameterised.group(1)
        raw_params = parameterised.group(2)
        operand_text = parameterised.group(3)
        params = tuple(
            _safe_eval(p) for p in raw_params.split(",") if p.strip()
        )
    else:
        name, _, operand_text = statement.partition(" ")
        if name.lower() == "measure":
            # measure q[i] -> c[i]
            operand_text = operand_text.split("->")[0]
    operands = _parse_operands(operand_text, register_offsets)
    if not operands:
        raise QasmError(f"statement has no qubit operands: {statement!r}")
    try:
        return Gate(name, tuple(operands), params)
    except ValueError as exc:
        raise QasmError(f"{exc} in statement {statement!r}") from exc


def _parse_operands(text: str, register_offsets: Dict[str, int]) -> List[int]:
    operands: List[int] = []
    for register, index in _OPERAND_RE.findall(text):
        if register not in register_offsets:
            continue
        operands.append(register_offsets[register] + int(index))
    return operands


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to OpenQASM 2.0 (single ``q``/``c`` register pair)."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
        f"creg c[{circuit.num_qubits}];",
    ]
    for gate in circuit.gates:
        operands = ",".join(f"q[{q}]" for q in gate.qubits)
        if gate.is_measurement:
            q = gate.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
        elif gate.params:
            args = ",".join(f"{p!r}" for p in gate.params)
            lines.append(f"{gate.name}({args}) {operands};")
        else:
            lines.append(f"{gate.name} {operands};")
    return "\n".join(lines) + "\n"


def load_qasm_file(path: str, name: Optional[str] = None) -> QuantumCircuit:
    """Read and parse an OpenQASM 2.0 file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_qasm(text, name=name or path)
