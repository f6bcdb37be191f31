"""Experiment runners shared by the benchmark harness and the examples.

Each function reproduces one family of tables/figures from the paper's
evaluation (Sec. VI); the benchmarks wrap them with ``pytest-benchmark`` and
print the regenerated rows/series.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..circuits import QuantumCircuit
from ..circuits.library import get_circuit
from ..cloud import CloudTopology, QuantumCloud
from ..multitenant import (
    MultiTenantSimulator,
    fifo_batch_manager,
    generate_batch,
    priority_batch_manager,
)
from ..placement import (
    CloudQCBFSPlacement,
    CloudQCPlacement,
    PlacementAlgorithm,
    get_placement_algorithm,
)
from ..scheduling import NetworkScheduler, get_scheduler
from ..sim import NetworkExecutor


def default_cloud(
    num_qpus: int = 20,
    computing_qubits: int = 20,
    communication_qubits: int = 5,
    edge_probability: float = 0.3,
    epr_success_probability: float = 0.3,
    seed: Optional[int] = 7,
) -> QuantumCloud:
    """The evaluation's default cloud (Sec. VI-A)."""
    topology = CloudTopology.random(
        num_qpus=num_qpus, edge_probability=edge_probability, seed=seed
    )
    return QuantumCloud(
        topology,
        computing_qubits_per_qpu=computing_qubits,
        communication_qubits_per_qpu=communication_qubits,
        epr_success_probability=epr_success_probability,
    )


# ----------------------------------------------------------------------
# Table III and Figs. 6-9: single-circuit placement
# ----------------------------------------------------------------------
def single_circuit_placement(
    circuit_names: Sequence[str],
    algorithms: Mapping[str, PlacementAlgorithm],
    cloud: Optional[QuantumCloud] = None,
    seed: int = 1,
    metric: str = "remote_operations",
) -> Dict[str, Dict[str, float]]:
    """Remote-operation count (or communication cost) per circuit and algorithm.

    ``metric`` is ``"remote_operations"`` for Table III or
    ``"communication_cost"`` for the Figs. 6-9 overhead axis.
    """
    cloud = cloud or default_cloud()
    table: Dict[str, Dict[str, float]] = {}
    for name in circuit_names:
        circuit = get_circuit(name)
        row: Dict[str, float] = {}
        for label, algorithm in algorithms.items():
            placement = algorithm.place(circuit, cloud, seed=seed)
            if metric == "remote_operations":
                row[label] = float(placement.num_remote_operations())
            elif metric == "communication_cost":
                row[label] = float(placement.communication_cost(cloud))
            else:
                raise ValueError(f"unknown metric {metric!r}")
        table[name] = row
    return table


def default_placement_algorithms(fast: bool = True) -> Dict[str, PlacementAlgorithm]:
    """The five algorithms compared in Table III.

    ``fast=True`` shrinks the SA/GA budgets so the full table runs in minutes;
    set it to False to give the meta-heuristics the long budgets the paper
    describes (they still lose to CloudQC, only more slowly).
    """
    if fast:
        sa = get_placement_algorithm("simulated-annealing", iterations=2000)
        ga = get_placement_algorithm("genetic", population_size=16, generations=20)
    else:
        sa = get_placement_algorithm("simulated-annealing", iterations=50000)
        ga = get_placement_algorithm("genetic", population_size=60, generations=200)
    return {
        "SA": sa,
        "Random": get_placement_algorithm("random"),
        "GA": ga,
        "CloudQC-BFS": CloudQCBFSPlacement(),
        "CloudQC": CloudQCPlacement(),
    }


def sweep_computing_qubits(
    circuit_name: str,
    qubit_counts: Sequence[int] = (10, 20, 30, 40, 50),
    algorithms: Optional[Mapping[str, PlacementAlgorithm]] = None,
    seed: int = 1,
    topology_seed: int = 7,
) -> Dict[str, List[float]]:
    """Figs. 6-9: communication overhead vs computing qubits per QPU."""
    algorithms = algorithms or default_placement_algorithms()
    circuit = get_circuit(circuit_name)
    series: Dict[str, List[float]] = {label: [] for label in algorithms}
    for count in qubit_counts:
        if count * 20 < circuit.num_qubits:
            # The circuit does not fit in the cloud at this size; skip the point.
            for label in algorithms:
                series[label].append(float("nan"))
            continue
        cloud = default_cloud(computing_qubits=count, seed=topology_seed)
        for label, algorithm in algorithms.items():
            placement = algorithm.place(circuit, cloud, seed=seed)
            series[label].append(float(placement.communication_cost(cloud)))
    return series


# ----------------------------------------------------------------------
# Fig. 22 and Figs. 10-13 / 18-21: network scheduling
# ----------------------------------------------------------------------
def default_schedulers() -> Dict[str, NetworkScheduler]:
    """The four policies of Sec. VI-C."""
    return {
        "CloudQC": get_scheduler("cloudqc"),
        "Average": get_scheduler("average"),
        "Random": get_scheduler("random"),
        "Greedy": get_scheduler("greedy"),
    }


def scheduling_comparison(
    circuit_names: Sequence[str],
    schedulers: Optional[Mapping[str, NetworkScheduler]] = None,
    cloud: Optional[QuantumCloud] = None,
    placer: Optional[PlacementAlgorithm] = None,
    repetitions: int = 3,
    seed: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Mean JCT per circuit and scheduler under the default setting (Fig. 22)."""
    cloud = cloud or default_cloud()
    placer = placer or CloudQCPlacement()
    schedulers = schedulers or default_schedulers()
    table: Dict[str, Dict[str, float]] = {}
    for name in circuit_names:
        circuit = get_circuit(name)
        placement = placer.place(circuit, cloud, seed=seed)
        row: Dict[str, float] = {}
        for label, scheduler in schedulers.items():
            executor = NetworkExecutor(cloud, scheduler)
            times = [
                executor.execute(
                    circuit, placement.mapping, seed=seed + rep
                ).completion_time
                for rep in range(repetitions)
            ]
            row[label] = float(np.mean(times))
        table[name] = row
    return table


def sweep_communication_qubits(
    circuit_name: str,
    communication_counts: Sequence[int] = (5, 6, 7, 8, 9, 10),
    schedulers: Optional[Mapping[str, NetworkScheduler]] = None,
    repetitions: int = 3,
    seed: int = 1,
    topology_seed: int = 7,
) -> Dict[str, List[float]]:
    """Figs. 10-13: mean JCT vs communication qubits per QPU."""
    schedulers = schedulers or default_schedulers()
    circuit = get_circuit(circuit_name)
    series: Dict[str, List[float]] = {label: [] for label in schedulers}
    for count in communication_counts:
        cloud = default_cloud(communication_qubits=count, seed=topology_seed)
        placement = CloudQCPlacement().place(circuit, cloud, seed=seed)
        for label, scheduler in schedulers.items():
            executor = NetworkExecutor(cloud, scheduler)
            times = [
                executor.execute(
                    circuit, placement.mapping, seed=seed + rep
                ).completion_time
                for rep in range(repetitions)
            ]
            series[label].append(float(np.mean(times)))
    return series


def sweep_epr_probability(
    circuit_name: str,
    probabilities: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
    schedulers: Optional[Mapping[str, NetworkScheduler]] = None,
    repetitions: int = 3,
    seed: int = 1,
    topology_seed: int = 7,
) -> Dict[str, List[float]]:
    """Figs. 18-21: mean JCT vs EPR success probability."""
    schedulers = schedulers or default_schedulers()
    circuit = get_circuit(circuit_name)
    series: Dict[str, List[float]] = {label: [] for label in schedulers}
    cloud = default_cloud(seed=topology_seed)
    placement = CloudQCPlacement().place(circuit, cloud, seed=seed)
    for probability in probabilities:
        for label, scheduler in schedulers.items():
            executor = NetworkExecutor(
                cloud, scheduler, epr_success_probability=probability
            )
            times = [
                executor.execute(
                    circuit, placement.mapping, seed=seed + rep
                ).completion_time
                for rep in range(repetitions)
            ]
            series[label].append(float(np.mean(times)))
    return series


# ----------------------------------------------------------------------
# Figs. 14-17: multi-tenant CDFs
# ----------------------------------------------------------------------
def multitenant_methods() -> Dict[str, dict]:
    """The three methods of Sec. VI-D as (placer, batch manager) combinations."""
    return {
        "CloudQC": {
            "placement": CloudQCPlacement(),
            "batch_manager": priority_batch_manager(),
        },
        "CloudQC-BFS": {
            "placement": CloudQCBFSPlacement(),
            "batch_manager": priority_batch_manager(),
        },
        "CloudQC-FIFO": {
            "placement": CloudQCPlacement(),
            "batch_manager": fifo_batch_manager(),
        },
    }


def multitenant_jct_distribution(
    workload: str,
    methods: Optional[Mapping[str, dict]] = None,
    num_batches: int = 2,
    batch_size: int = 20,
    seed: int = 1,
    cloud: Optional[QuantumCloud] = None,
) -> Dict[str, List[float]]:
    """Per-method job-completion-time samples for one workload (Figs. 14-17)."""
    methods = methods or multitenant_methods()
    cloud = cloud or default_cloud()
    distribution: Dict[str, List[float]] = {}
    for label, pieces in methods.items():
        simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=pieces["placement"],
            network_scheduler=get_scheduler("cloudqc"),
            batch_manager=pieces["batch_manager"],
        )
        times: List[float] = []
        for batch_index in range(num_batches):
            batch = generate_batch(
                workload, batch_size=batch_size, seed=seed + batch_index
            )
            results = simulator.run_batch(batch, seed=seed + batch_index)
            times.extend(result.job_completion_time for result in results)
        distribution[label] = times
    return distribution
