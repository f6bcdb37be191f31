"""Configuration objects for the CloudQC framework.

The defaults are exactly the paper's evaluation setting (Sec. VI-A): 20 QPUs
with 20 computing and 5 communication qubits each, a random topology with edge
probability 0.3, and an EPR success probability of 0.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..cloud import CloudTopology, QuantumCloud
from ..sim import LatencyModel


@dataclass(frozen=True)
class CloudConfig:
    """Parameters of the simulated quantum cloud."""

    num_qpus: int = 20
    computing_qubits_per_qpu: int = 20
    communication_qubits_per_qpu: int = 5
    edge_probability: float = 0.3
    epr_success_probability: float = 0.3
    topology: str = "random"
    seed: Optional[int] = None

    def build_cloud(self) -> QuantumCloud:
        """Construct a :class:`QuantumCloud` from this configuration."""
        if self.topology == "random":
            topology = CloudTopology.random(
                num_qpus=self.num_qpus,
                edge_probability=self.edge_probability,
                seed=self.seed,
            )
        elif self.topology == "line":
            topology = CloudTopology.line(self.num_qpus)
        elif self.topology == "ring":
            topology = CloudTopology.ring(self.num_qpus)
        elif self.topology == "star":
            topology = CloudTopology.star(self.num_qpus)
        elif self.topology == "complete":
            topology = CloudTopology.complete(self.num_qpus)
        else:
            raise ValueError(f"unknown topology kind {self.topology!r}")
        return QuantumCloud(
            topology,
            computing_qubits_per_qpu=self.computing_qubits_per_qpu,
            communication_qubits_per_qpu=self.communication_qubits_per_qpu,
            epr_success_probability=self.epr_success_probability,
        )


@dataclass(frozen=True)
class PlacementConfig:
    """Parameters of the CloudQC placement search (Algorithm 1)."""

    algorithm: str = "cloudqc"
    imbalance_factors: Tuple[float, ...] = (0.05, 0.15, 0.30, 0.50)
    score_alpha: float = 1.0
    score_beta: float = 1.0
    max_extra_parts: int = 4


@dataclass(frozen=True)
class SchedulingConfig:
    """Parameters of the network scheduler."""

    policy: str = "cloudqc"
    max_redundancy: Optional[int] = None


@dataclass(frozen=True)
class FrameworkConfig:
    """Top-level configuration combining every stage."""

    cloud: CloudConfig = field(default_factory=CloudConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    scheduling: SchedulingConfig = field(default_factory=SchedulingConfig)
    latency: LatencyModel = field(default_factory=LatencyModel)
    batch_mode: str = "priority"
