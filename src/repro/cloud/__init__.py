"""Quantum-cloud substrate: QPUs, topology, resource management, jobs."""

from .qpu import QPU, ResourceError
from .topology import CloudTopology, TopologyError
from .cloud import PlacementError, QuantumCloud
from .job import Job, JobStatus
from .controller import Controller

__all__ = [
    "CloudTopology",
    "Controller",
    "Job",
    "JobStatus",
    "PlacementError",
    "QPU",
    "QuantumCloud",
    "ResourceError",
    "TopologyError",
]
