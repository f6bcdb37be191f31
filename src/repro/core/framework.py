"""The CloudQC framework facade: the library's primary public entry point.

``CloudQCFramework`` wires the full pipeline of Fig. 4 together: batch manager,
circuit placement (partitioning + community detection + Algorithm 2), and the
priority-based network scheduler, running on the simulated quantum cloud.

Typical usage::

    from repro import CloudQCFramework
    from repro.circuits.library import get_circuit

    framework = CloudQCFramework.with_defaults(seed=7)
    outcome = framework.run_circuit(get_circuit("qft_n63"), seed=1)
    print(outcome.placement.num_remote_operations(), outcome.result.completion_time)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..multitenant import (
    BatchManager,
    BatchManagerConfig,
    BatchMode,
    MultiTenantSimulator,
    TenantJobResult,
    priority_batch_manager,
)
from ..placement import (
    Placement,
    PlacementAlgorithm,
    get_placement_algorithm,
)
from ..scheduling import NetworkScheduler, get_scheduler
from ..sim import JobExecutionResult, LatencyModel, NetworkExecutor
from .config import FrameworkConfig


@dataclass
class CircuitOutcome:
    """Placement plus simulated execution of a single circuit."""

    placement: Placement
    result: JobExecutionResult

    @property
    def completion_time(self) -> float:
        return self.result.completion_time

    @property
    def communication_cost(self) -> float:
        return self.placement.metadata.get("communication_cost", 0.0)


class CloudQCFramework:
    """End-to-end CloudQC pipeline on a simulated multi-tenant quantum cloud."""

    def __init__(
        self,
        cloud: QuantumCloud,
        placement_algorithm: Optional[PlacementAlgorithm] = None,
        network_scheduler: Optional[NetworkScheduler] = None,
        batch_manager: Optional[BatchManager] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.cloud = cloud
        self.placement_algorithm = placement_algorithm or get_placement_algorithm(
            "cloudqc"
        )
        self.network_scheduler = network_scheduler or get_scheduler("cloudqc")
        self.batch_manager = batch_manager or priority_batch_manager()
        self.latency = latency or LatencyModel()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_defaults(cls, seed: Optional[int] = None) -> "CloudQCFramework":
        """The paper's default configuration (Sec. VI-A)."""
        return cls.from_config(FrameworkConfig(), seed=seed)

    @classmethod
    def from_config(
        cls, config: FrameworkConfig, seed: Optional[int] = None
    ) -> "CloudQCFramework":
        """Build a framework from a :class:`FrameworkConfig`.

        Raises ``ValueError`` naming the field for an unknown ``batch_mode``
        and for a ``scheduling.max_redundancy`` set with a policy other than
        ``"cloudqc"``, the only scheduler it caps.
        """
        try:
            batch_mode = BatchMode(config.batch_mode)
        except ValueError:
            raise ValueError(
                f"unknown batch_mode {config.batch_mode!r}; "
                f"known: {[mode.value for mode in BatchMode]}"
            ) from None
        if (
            config.scheduling.max_redundancy is not None
            and config.scheduling.policy != "cloudqc"
        ):
            raise ValueError(
                "scheduling.max_redundancy applies only to the 'cloudqc' "
                f"policy, not {config.scheduling.policy!r}"
            )
        cloud_config = config.cloud
        if seed is not None:
            cloud_config = type(cloud_config)(
                **{**cloud_config.__dict__, "seed": seed}
            )
        cloud = cloud_config.build_cloud()
        placement = get_placement_algorithm(
            config.placement.algorithm,
            imbalance_factors=config.placement.imbalance_factors,
            alpha=config.placement.score_alpha,
            beta=config.placement.score_beta,
            max_extra_parts=config.placement.max_extra_parts,
        ) if config.placement.algorithm in ("cloudqc", "cloudqc-bfs") else get_placement_algorithm(
            config.placement.algorithm
        )
        scheduler = get_scheduler(
            config.scheduling.policy,
            **(
                {"max_redundancy": config.scheduling.max_redundancy}
                if config.scheduling.policy == "cloudqc"
                else {}
            ),
        )
        return cls(
            cloud,
            placement_algorithm=placement,
            network_scheduler=scheduler,
            batch_manager=BatchManager(BatchManagerConfig(mode=batch_mode)),
            latency=config.latency,
        )

    # ------------------------------------------------------------------
    # Single-circuit pipeline
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Multi-tenant pipeline
    # ------------------------------------------------------------------
    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        seed: Optional[int] = None,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> List[TenantJobResult]:
        """Run a batch of tenant circuits through the full multi-tenant pipeline."""
        simulator = MultiTenantSimulator(
            self.cloud,
            placement_algorithm=self.placement_algorithm,
            network_scheduler=self.network_scheduler,
            batch_manager=self.batch_manager,
            latency=self.latency,
        )
        return simulator.run_batch(circuits, seed=seed, arrival_times=arrival_times)

    def job_completion_times(
        self, results: Sequence[TenantJobResult]
    ) -> Dict[str, float]:
        """Convenience: job id -> JCT."""
        return {result.job_id: result.job_completion_time for result in results}
