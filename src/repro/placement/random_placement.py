"""Random placement baseline (Sec. VI-B).

"It starts with a random node and does a random search to select a set of QPUs
that meet computing constraints" -- then qubits are scattered uniformly over
the selected QPUs, respecting per-QPU capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from .base import Placement, PlacementAlgorithm
from .mapping import MappingError
from .scoring import score_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext


def _pick(rng: np.random.Generator, n: int) -> int:
    """A uniform index below ``n``, and 0 without a draw when ``n`` is 1.

    numpy answers ``integers(1)`` with 0 and leaves the generator as it
    was, so skipping that call changes neither the pick nor the state.
    """
    return 0 if n == 1 else int(rng.integers(n))


def random_qpu_walk(
    cloud: QuantumCloud,
    required_qubits: int,
    rng: np.random.Generator,
) -> List[int]:
    """Random-walk QPU selection: expand from a random start until capacity fits.

    The walk follows links of the static topology but only steps onto fleet
    members: a failed or drained QPU keeps its links yet has no capacity
    entry to select.
    """
    available = cloud.available_computing()
    # detlint: ignore[DET003] integer availability; sum is order-insensitive
    if sum(available.values()) < required_qubits:
        raise MappingError(  # detlint: ignore[DET003] integer availability; sum is order-insensitive
            f"cloud has {sum(available.values())} free qubits, need {required_qubits}"
        )
    qpu_ids = cloud.qpu_ids
    start = qpu_ids[_pick(rng, len(qpu_ids))]
    selected: List[int] = []
    capacity = 0
    visited = {start}
    frontier = [start]
    while frontier and capacity < required_qubits:
        index = _pick(rng, len(frontier))
        qpu = frontier.pop(index)
        if available[qpu] > 0:
            selected.append(qpu)
            capacity += available[qpu]
        for neighbor in cloud.topology.neighbors(qpu):
            if neighbor not in visited and neighbor in available:
                visited.add(neighbor)
                frontier.append(neighbor)
    if capacity < required_qubits:
        # Disconnected availability: top up with random remaining QPUs.
        remaining = [q for q in qpu_ids if q not in selected and available[q] > 0]
        rng.shuffle(remaining)
        for qpu in remaining:
            selected.append(qpu)
            capacity += available[qpu]
            if capacity >= required_qubits:
                break
    return selected


def random_mapping(
    circuit: QuantumCircuit,
    cloud: QuantumCloud,
    rng: np.random.Generator,
    qpu_set: Optional[List[int]] = None,
) -> Dict[int, int]:
    """Scatter the circuit's qubits uniformly over ``qpu_set`` within capacity.

    Raises :class:`MappingError` when ``qpu_set`` names a QPU outside the
    cloud's fleet (before any draw) or runs out of free qubits.
    """
    if qpu_set is None:
        qpu_set = random_qpu_walk(cloud, circuit.num_qubits, rng)
    else:
        qpu_set = [int(qpu) for qpu in qpu_set]
        outside = [qpu for qpu in qpu_set if qpu not in cloud.qpus]
        if outside:
            raise MappingError(f"QPUs {outside} are not in the cloud's fleet")
    slack = {qpu: cloud.qpu(qpu).computing_available for qpu in qpu_set}
    qubits = list(range(circuit.num_qubits))
    rng.shuffle(qubits)
    mapping: Dict[int, int] = {}
    for qubit in qubits:
        options = [qpu for qpu in qpu_set if slack[qpu] > 0]
        if not options:
            raise MappingError("selected QPU set ran out of capacity")
        choice = options[_pick(rng, len(options))]
        mapping[qubit] = choice
        slack[choice] -= 1
    return mapping


class RandomPlacement(PlacementAlgorithm):
    """Uniformly random capacity-respecting placement."""

    name = "random"

    def __init__(self, alpha: float = 1.0, beta: float = 1.0) -> None:
        self.alpha = alpha
        self.beta = beta

    def place(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional["PlacementContext"] = None,
    ) -> Placement:
        rng = np.random.default_rng(seed)
        mapping = random_mapping(circuit, cloud, rng)
        metrics = score_mapping(circuit, mapping, cloud, alpha=self.alpha, beta=self.beta)
        return Placement(
            circuit=circuit,
            mapping=mapping,
            algorithm=self.name,
            score=metrics["score"],
            metadata=metrics,
        )
