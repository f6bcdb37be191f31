"""Graph partitioning substrate (METIS replacement): multilevel k-way + spectral."""

from .metrics import (
    assignment_to_parts,
    edge_cut,
    imbalance,
    is_valid_partition,
    part_weights,
    parts_to_assignment,
)
from .csr import CSRGraph
from .coarsen import CoarseningLevel, coarsen, contract, heavy_edge_matching
from .refine import rebalance, refine
from .kway import (
    PartitionError,
    partition_cost,
    partition_graph,
    partition_sizes,
)
from .spectral import fiedler_bisection, spectral_partition

__all__ = [
    "CSRGraph",
    "CoarseningLevel",
    "PartitionError",
    "assignment_to_parts",
    "coarsen",
    "contract",
    "edge_cut",
    "fiedler_bisection",
    "heavy_edge_matching",
    "imbalance",
    "is_valid_partition",
    "part_weights",
    "partition_cost",
    "partition_graph",
    "partition_sizes",
    "parts_to_assignment",
    "rebalance",
    "refine",
    "spectral_partition",
]
