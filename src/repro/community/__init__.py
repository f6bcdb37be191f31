"""Community-detection substrate: modularity, Louvain, QPU-set selection."""

from .modularity import (
    modularity,
    modularity_from_assignment,
    total_edge_weight,
    weighted_degrees,
)
from .louvain import louvain_communities
from .detection import (
    CommunityError,
    community_capacity,
    expand_community,
    graph_center,
    select_qpu_community,
)

__all__ = [
    "CommunityError",
    "community_capacity",
    "expand_community",
    "graph_center",
    "louvain_communities",
    "modularity",
    "modularity_from_assignment",
    "select_qpu_community",
    "total_edge_weight",
    "weighted_degrees",
]
