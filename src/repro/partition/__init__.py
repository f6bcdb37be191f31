"""Graph partitioning substrate (METIS replacement): multilevel k-way."""

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
from .kway import PartitionError, partition_graph

__all__ = [
    "CSRGraph",
    "CoarseningLevel",
    "PartitionError",
    "assignment_to_parts",
    "coarsen",
    "contract",
    "edge_cut",
    "heavy_edge_matching",
    "imbalance",
    "is_valid_partition",
    "part_weights",
    "partition_graph",
    "parts_to_assignment",
    "rebalance",
    "refine",
]
