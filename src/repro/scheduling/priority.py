"""Priority computation for remote operations (Sec. V-C).

The paper defines the priority of a remote-DAG node as the length of the
longest path from that node to any leaf: nodes whose failure would backlog
many downstream gates (critical-path nodes) receive redundant EPR resources.
:class:`RemoteDAG` stores those priorities itself.  This module recomputes
them standalone, as the reference the stored values are tested against, and
overwrites them, e.g. with the uniform priorities of the no-priority
ablation.
"""

from __future__ import annotations

from typing import Dict, Mapping

from .remote_dag import RemoteDAG


def longest_path_priorities(remote_dag: RemoteDAG) -> Dict[int, int]:
    """p_i = max path length (in edges) from node i to a leaf (paper default)."""
    priorities: Dict[int, int] = {}
    for node_id in reversed(remote_dag.topological_order()):
        operation = remote_dag.operation(node_id)
        if not operation.successors:
            priorities[node_id] = 0
        else:
            priorities[node_id] = 1 + max(
                priorities[successor] for successor in operation.successors
            )
    return priorities


def uniform_priorities(remote_dag: RemoteDAG) -> Dict[int, int]:
    """Every operation has priority 0 (the no-priority ablation)."""
    return {node_id: 0 for node_id in remote_dag.operations}


def apply_priorities(remote_dag: RemoteDAG, priorities: Mapping[int, int]) -> None:
    """Overwrite the DAG's stored priorities in place."""
    for node_id, priority in priorities.items():
        remote_dag.operation(node_id).priority = int(priority)
