"""The CloudQC framework facade: the library's primary public entry point.

``CloudQCFramework`` wires CloudQC's two components together for one
circuit: circuit placement (partitioning + community detection +
Algorithm 2) and the priority-based network scheduler, running on the
simulated quantum cloud.  Multi-tenant runs use
:class:`~repro.multitenant.MultiTenantSimulator` directly.

Typical usage::

    from repro import CloudQCFramework
    from repro.circuits.library import get_circuit

    framework = CloudQCFramework.with_defaults(seed=7)
    outcome = framework.run_circuit(get_circuit("qft_n63"), seed=1)
    print(outcome.placement.num_remote_operations(), outcome.result.completion_time)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import default_cloud
from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..placement import (
    Placement,
    PlacementAlgorithm,
    get_placement_algorithm,
)
from ..scheduling import NetworkScheduler, get_scheduler
from ..sim import JobExecutionResult, LatencyModel, NetworkExecutor


@dataclass
class CircuitOutcome:
    """Placement plus simulated execution of a single circuit."""

    placement: Placement
    result: JobExecutionResult


class CloudQCFramework:
    """CloudQC placement and network scheduling on a simulated quantum cloud."""

    def __init__(
        self,
        cloud: QuantumCloud,
        placement_algorithm: Optional[PlacementAlgorithm] = None,
        network_scheduler: Optional[NetworkScheduler] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.cloud = cloud
        self.placement_algorithm = placement_algorithm or get_placement_algorithm(
            "cloudqc"
        )
        self.network_scheduler = network_scheduler or get_scheduler("cloudqc")
        self.latency = latency or LatencyModel()

    @classmethod
    def with_defaults(cls, seed: Optional[int] = None) -> "CloudQCFramework":
        """The paper's default configuration (Sec. VI-A): see
        :func:`~repro.analysis.default_cloud`; ``seed`` picks its random
        topology."""
        return cls(default_cloud(seed=seed))

    def place_circuit(
        self, circuit: QuantumCircuit, seed: Optional[int] = None
    ) -> Placement:
        """Run only the placement stage."""
        return self.placement_algorithm.place(circuit, self.cloud, seed=seed)

    def run_circuit(
        self, circuit: QuantumCircuit, seed: Optional[int] = None
    ) -> CircuitOutcome:
        """Place and execute a single circuit on an otherwise idle cloud."""
        placement = self.place_circuit(circuit, seed=seed)
        executor = NetworkExecutor(
            self.cloud, self.network_scheduler, latency=self.latency
        )
        result = executor.execute(circuit, placement.mapping, seed=seed)
        return CircuitOutcome(placement=placement, result=result)
