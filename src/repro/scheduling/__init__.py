"""Network scheduling: remote DAGs, priorities, EPR allocation policies."""

from .remote_dag import RemoteDAG, RemoteOperation
from .priority import (
    apply_priorities,
    longest_path_priorities,
    uniform_priorities,
)
from .allocation import (
    AllocationRequest,
    allocation_usage,
    charge,
    is_feasible,
    max_allocatable,
)
from .schedulers import (
    NETWORK_SCHEDULERS,
    AverageScheduler,
    CloudQCScheduler,
    GreedyScheduler,
    NetworkScheduler,
    RandomScheduler,
    get_scheduler,
)

__all__ = [
    "AllocationRequest",
    "AverageScheduler",
    "CloudQCScheduler",
    "GreedyScheduler",
    "NETWORK_SCHEDULERS",
    "NetworkScheduler",
    "RandomScheduler",
    "RemoteDAG",
    "RemoteOperation",
    "allocation_usage",
    "apply_priorities",
    "charge",
    "get_scheduler",
    "is_feasible",
    "longest_path_priorities",
    "max_allocatable",
    "uniform_priorities",
]
