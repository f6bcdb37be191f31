"""Benchmark circuit library: programmatic generators for the paper's workloads.

``get_circuit("qft_n63")`` returns the generated circuit for any of the
QASMBench-style names used in the paper's tables and figures; ``build(family,
num_qubits)`` constructs an arbitrary size of a given family.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..circuit import QuantumCircuit
from .basic import bernstein_vazirani, cat_state, ghz, ising, w_state
from .swaptest import quantum_knn, qugan, swap_test
from .arithmetic import counterfeit_coin, multiplier, ripple_carry_adder
from .transforms import qft, quantum_volume, vqe_uccsd
from .variational import hardware_efficient_ansatz, qaoa

#: Family name -> generator taking the qubit count.
CIRCUIT_FAMILIES: Dict[str, Callable[[int], QuantumCircuit]] = {
    "ghz": ghz,
    "cat": cat_state,
    "bv": bernstein_vazirani,
    "ising": ising,
    "wstate": w_state,
    "swap_test": swap_test,
    "knn": quantum_knn,
    "qugan": qugan,
    "cc": counterfeit_coin,
    "adder": ripple_carry_adder,
    "multiplier": multiplier,
    "qft": qft,
    "qv": quantum_volume,
    "vqe_uccsd": vqe_uccsd,
    "qaoa": qaoa,
    "hea": hardware_efficient_ansatz,
}


def build(family: str, num_qubits: int, **kwargs) -> QuantumCircuit:
    """Build a circuit of ``family`` with ``num_qubits`` qubits."""
    if family not in CIRCUIT_FAMILIES:
        raise KeyError(
            f"unknown circuit family {family!r}; known: {sorted(CIRCUIT_FAMILIES)}"
        )
    return CIRCUIT_FAMILIES[family](num_qubits, **kwargs)


def parse_circuit_name(name: str) -> Tuple[str, int]:
    """Split a QASMBench-style name such as ``"qft_n63"`` into its family
    and qubit count, without checking the family.

    The name is ``<family>_n<num_qubits>``; families containing underscores
    (``swap_test``, ``vqe_uccsd``) are handled as well.  Every family builds
    exactly the qubit count its name gives, or refuses it with
    ``ValueError``, so the count is known before the circuit is built.
    """
    base, _, suffix = name.rpartition("_n")
    if not base or not suffix.isdigit():
        raise KeyError(f"cannot parse circuit name {name!r}")
    return base, int(suffix)


def get_circuit(name: str, **kwargs) -> QuantumCircuit:
    """Build a circuit from a QASMBench-style name such as ``"qft_n63"``
    (see :func:`parse_circuit_name`)."""
    return build(*parse_circuit_name(name), **kwargs)


def available_circuits() -> List[str]:
    """The benchmark circuit names used throughout the paper's evaluation."""
    return [
        "ghz_n127",
        "bv_n70",
        "bv_n140",
        "ising_n34",
        "ising_n66",
        "ising_n98",
        "cat_n65",
        "cat_n130",
        "swap_test_n115",
        "knn_n67",
        "knn_n129",
        "qugan_n39",
        "qugan_n71",
        "qugan_n111",
        "cc_n64",
        "adder_n64",
        "adder_n118",
        "multiplier_n45",
        "multiplier_n75",
        "qft_n29",
        "qft_n63",
        "qft_n100",
        "qft_n160",
        "qv_n100",
        "vqe_uccsd_n28",
    ]


__all__ = [
    "CIRCUIT_FAMILIES",
    "available_circuits",
    "bernstein_vazirani",
    "build",
    "cat_state",
    "counterfeit_coin",
    "get_circuit",
    "ghz",
    "hardware_efficient_ansatz",
    "ising",
    "multiplier",
    "parse_circuit_name",
    "qaoa",
    "qft",
    "quantum_knn",
    "quantum_volume",
    "qugan",
    "ripple_carry_adder",
    "swap_test",
    "vqe_uccsd",
    "w_state",
]
