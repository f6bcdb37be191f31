"""CloudQC circuit placement (Algorithm 1) and the CloudQC-BFS variant.

For each candidate (imbalance factor, part count) pair the pipeline is:

1. partition the qubit-interaction graph with the multilevel partitioner,
2. select a QPU set -- community detection for CloudQC, BFS expansion for
   CloudQC-BFS,
3. map parts to QPUs with the graph-center heuristic (Algorithm 2),
4. score the resulting qubit mapping with ``S = alpha / T + beta / C``.

The highest-scoring mapping over all candidates is returned.

CloudQC is deterministic, like the paper's METIS partitioner: partitioning
and community detection run with one fixed seed
(:data:`~repro.placement.context.PLACEMENT_SEED`), so a placement is a pure
function of the circuit and the cloud's availability map, and the ``seed``
argument of :meth:`CloudQCPlacement.place` does not change it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..community import CommunityError
from .base import Placement, PlacementAlgorithm
from .context import PlacementContext
from .mapping import MappingError, expand_parts_to_qubits, map_partitions_to_qpus
from .qpu_selection import bfs_qpu_set, community_qpu_set
from .scoring import score_mapping

#: Imbalance factors explored by default (Algorithm 1's alpha list).
DEFAULT_IMBALANCE_FACTORS: Tuple[float, ...] = (0.05, 0.15, 0.30, 0.50)


class CloudQCPlacement(PlacementAlgorithm):
    """The paper's placement algorithm (community detection + Algorithm 2)."""

    name = "cloudqc"
    qpu_selection = "community"

    def __init__(
        self,
        imbalance_factors: Sequence[float] = DEFAULT_IMBALANCE_FACTORS,
        alpha: float = 1.0,
        beta: float = 1.0,
        max_extra_parts: int = 4,
    ) -> None:
        if not imbalance_factors:
            raise ValueError("at least one imbalance factor is required")
        self.imbalance_factors = tuple(imbalance_factors)
        self.alpha = alpha
        self.beta = beta
        self.max_extra_parts = max_extra_parts

    # ------------------------------------------------------------------
    # QPU-set selection (overridden by the BFS variant)
    # ------------------------------------------------------------------
    def _select_qpus(
        self,
        cloud: QuantumCloud,
        required_qubits: int,
        min_qpus: int,
        context: PlacementContext,
    ) -> List[int]:
        return community_qpu_set(
            cloud, required_qubits, min_qpus=min_qpus, context=context
        )

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def place(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional[PlacementContext] = None,
    ) -> Placement:
        """Run Algorithm 1 over the (imbalance, num_parts) candidate grid.

        ``context`` memoizes the attempt's inputs (interaction graph,
        partitions, communities, QPU sets); passing one shared context across
        calls makes repeated attempts incremental.  ``seed`` is accepted for
        the :class:`PlacementAlgorithm` interface and unused: placements are
        identical for every seed, with or without a context.
        """
        if context is None:
            # An attempt-local context still dedupes work across the candidate
            # grid (one interaction graph build, one community detection).
            context = PlacementContext()
        size = circuit.num_qubits
        if cloud.total_computing_available() < size:
            raise MappingError(
                f"cloud has {cloud.total_computing_available()} free qubits, "
                f"circuit {circuit.name} needs {size}"
            )

        # Fast path: the whole circuit fits on one QPU (Algorithm 1, line 2).
        host = cloud.fits_anywhere(size)
        if host is not None:
            mapping = {qubit: host for qubit in range(size)}
            metrics = score_mapping(
                circuit, mapping, cloud, alpha=self.alpha, beta=self.beta
            )
            return Placement(
                circuit=circuit,
                mapping=mapping,
                algorithm=self.name,
                score=metrics["score"],
                metadata=metrics,
            )

        candidates = self._candidate_part_counts(size, cloud)
        best: Optional[Placement] = None

        for imbalance in self.imbalance_factors:
            for num_parts in candidates:
                placement = self._try_placement(
                    circuit, cloud, num_parts, imbalance, context
                )
                if placement is None:
                    continue
                if best is None or placement.score > best.score:
                    best = placement
        if best is None:
            raise MappingError(
                f"CloudQC could not find a feasible placement for {circuit.name}"
            )
        return best

    def _candidate_part_counts(
        self, circuit_size: int, cloud: QuantumCloud
    ) -> List[int]:
        """Part counts k explored by the search (Algorithm 1's inner loop)."""
        per_qpu = max(cloud.max_available_computing(), 1)
        min_parts = max(2, math.ceil(circuit_size / per_qpu))
        # detlint: ignore[DET003] integer count; sum is order-insensitive
        usable_qpus = sum(
            1 for q in cloud.qpus.values() if q.computing_available > 0
        )
        max_parts = min(cloud.num_qpus, usable_qpus, min_parts + self.max_extra_parts)
        return list(range(min_parts, max(max_parts, min_parts) + 1))

    def _try_placement(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        num_parts: int,
        imbalance: float,
        context: PlacementContext,
    ) -> Optional[Placement]:
        if num_parts > circuit.num_qubits:
            return None
        assignment = context.partition(circuit, num_parts, imbalance)
        part_sizes: Dict[int, int] = Counter(assignment.values())
        try:
            qpu_set = self._select_qpus(
                cloud, circuit.num_qubits, len(part_sizes), context
            )
            quotient = context.quotient(circuit, assignment, num_parts, imbalance)
            part_to_qpu = map_partitions_to_qpus(
                part_sizes,
                quotient,
                cloud,
                qpu_set,
                context=context,
                order=context.part_order(circuit, num_parts, imbalance, quotient),
            )
            mapping = expand_parts_to_qubits(assignment, part_to_qpu)
        except (MappingError, CommunityError):
            # This (imbalance, k) candidate is infeasible; try the next one.
            return None

        metrics = score_mapping(
            circuit, mapping, cloud, alpha=self.alpha, beta=self.beta
        )
        metrics["num_parts"] = float(len(part_sizes))
        metrics["imbalance"] = float(imbalance)
        return Placement(
            circuit=circuit,
            mapping=mapping,
            algorithm=self.name,
            score=metrics["score"],
            metadata=metrics,
        )


class CloudQCBFSPlacement(CloudQCPlacement):
    """CloudQC-BFS: identical pipeline but BFS-based QPU selection (Sec. VI-B)."""

    name = "cloudqc-bfs"
    qpu_selection = "bfs"

    def _select_qpus(
        self,
        cloud: QuantumCloud,
        required_qubits: int,
        min_qpus: int,
        context: PlacementContext,
    ) -> List[int]:
        return bfs_qpu_set(
            cloud, required_qubits, min_qpus=min_qpus, context=context
        )
