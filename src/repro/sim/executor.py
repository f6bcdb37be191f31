"""Execution of one placed circuit over the quantum network (Sec. VI-C).

The single-circuit experiments (Figs. 10-13, 18-21 and 22) place a circuit
once and then measure its completion time under a network-scheduling
policy, probabilistic EPR generation and limited communication qubits.
:class:`NetworkExecutor` runs that measurement as a one-job batch of the
cluster simulator, :class:`~repro.multitenant.MultiTenantSimulator`, whose
placement algorithm returns the given mapping.  There is one round model,
the simulator's (see ``docs/architecture.md``): every EPR round the
scheduler divides each QPU's communication qubits among the job's front
layer, an operation granted ``x`` pairs succeeds with probability
``1 - (1 - p)^x``, and the job completes when its remote operations are
done and its local critical path has elapsed.

The simulator draws one placement seed from the run's generator before the
first EPR round, so a seeded execution samples its rounds from
``default_rng(seed)`` advanced by one ``integers(1 << 31)`` draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..cloud.job import reserve_job_ids, set_job_counter
from ..placement.base import Placement, PlacementAlgorithm
from ..scheduling import NetworkScheduler
from .latency import DEFAULT_LATENCY, LatencyModel, local_execution_time


@dataclass
class JobExecutionResult:
    """Outcome of one network execution."""

    job_id: str
    start_time: float
    completion_time: float
    num_remote_operations: int
    epr_rounds: int
    local_time: float


class _FixedMapping(PlacementAlgorithm):
    """Places the executed circuit with the mapping it was given."""

    name = "fixed"

    def __init__(self, mapping: Mapping[int, int]) -> None:
        self.mapping = dict(mapping)

    def place(self, circuit, cloud, seed=None, context=None) -> Placement:
        return Placement(circuit, dict(self.mapping), algorithm=self.name)


class NetworkExecutor:
    """Runs one placed circuit to completion on an otherwise idle cloud."""

    def __init__(
        self,
        cloud: QuantumCloud,
        scheduler: NetworkScheduler,
        latency: LatencyModel = DEFAULT_LATENCY,
        epr_success_probability: Optional[float] = None,
    ) -> None:
        self.cloud = cloud
        self.scheduler = scheduler
        self.latency = latency
        self.epr_success_probability = epr_success_probability

    def execute(
        self,
        circuit: QuantumCircuit,
        mapping: Mapping[int, int],
        seed: Optional[int] = None,
    ) -> JobExecutionResult:
        """Run ``circuit``, placed by ``mapping``, from time 0 to completion.

        Raises :class:`~repro.multitenant.ClusterSimulationError` when a
        remote operation needs a QPU without communication qubits (or
        outside the fleet): it could never be granted a pair.
        """
        # repro.multitenant builds on this package, so it is imported late.
        from ..multitenant import MultiTenantSimulator

        simulator = MultiTenantSimulator(
            self.cloud,
            _FixedMapping(mapping),
            self.scheduler,
            latency=self.latency,
            epr_success_probability=self.epr_success_probability,
        )
        # The job runs as job-0, and the process-wide id counter is put back
        # afterwards (reserving no ids reads it without taking one), so an
        # execution never shifts the ids of later jobs, on which the
        # schedulers break ties.
        next_id = reserve_job_ids(0)
        set_job_counter(0)
        try:
            (result,) = simulator.run_batch([circuit], seed=seed)
        finally:
            set_job_counter(next_id)
        return JobExecutionResult(
            job_id=result.job_id,
            start_time=result.placement_time,
            completion_time=result.completion_time,
            num_remote_operations=result.num_remote_operations,
            epr_rounds=result.epr_rounds,
            local_time=local_execution_time(circuit, self.latency),
        )

    def execute_single(
        self,
        circuit: QuantumCircuit,
        mapping: Mapping[int, int],
        seed: Optional[int] = None,
    ) -> JobExecutionResult:
        """Same as :meth:`execute`, under the name perfbench's ``paper-fig22``
        workload calls."""
        return self.execute(circuit, mapping, seed=seed)
