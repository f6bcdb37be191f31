"""E9 -- ablation benchmarks for CloudQC's design choices.

These do not correspond to a numbered table/figure; they quantify the design
decisions Sec. V motivates qualitatively:

* community detection vs BFS QPU selection (distance-weighted cost),
* priority-based redundancy vs uniform priorities in the network scheduler,
* the batch-manager ordering metric vs FIFO,
* the imbalance-factor sweep of Algorithm 1 vs a single fixed factor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import default_cloud
from repro.circuits.library import get_circuit
from repro.multitenant import (
    MultiTenantSimulator,
    cluster_sim,
    fifo_batch_manager,
    generate_batch,
    priority_batch_manager,
)
from repro.placement import CloudQCBFSPlacement, CloudQCPlacement
from repro.scheduling import CloudQCScheduler, RemoteDAG, apply_priorities, uniform_priorities
from repro.sim import NetworkExecutor


@pytest.mark.paper_artifact("ablation")
def test_ablation_community_detection_vs_bfs(benchmark):
    """Community detection should lower the distance-weighted cost vs BFS."""
    cloud = default_cloud(seed=7)
    circuit = get_circuit("qft_n63")

    def run():
        community = CloudQCPlacement().place(circuit, cloud, seed=1)
        bfs = CloudQCBFSPlacement().place(circuit, cloud, seed=1)
        return community.communication_cost(cloud), bfs.communication_cost(cloud)

    community_cost, bfs_cost = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nAblation (QPU selection): community={community_cost:.0f} bfs={bfs_cost:.0f}")
    assert community_cost <= bfs_cost


@pytest.mark.paper_artifact("ablation")
def test_ablation_priority_vs_uniform_scheduling(benchmark, monkeypatch):
    """Longest-path priorities should not be slower than uniform priorities.

    The uniform arm must really run uniform priorities: the two means differ,
    which also pins that priorities set when the DAG is built reach the
    allocator.
    """
    cloud = default_cloud(seed=7)
    circuit = get_circuit("qft_n63")
    placement = CloudQCPlacement().place(circuit, cloud, seed=1)
    executor = NetworkExecutor(cloud, CloudQCScheduler())
    seeds = range(3)

    def run():
        with_priority = [
            executor.execute(circuit, placement.mapping, seed=s).completion_time
            for s in seeds
        ]
        return float(np.mean(with_priority))

    priority_mean = benchmark.pedantic(run, rounds=1, iterations=1)

    # Re-run with priorities forced to zero: the executor runs a one-job
    # cluster simulation, which builds its DAGs through the RemoteDAG name in
    # repro.multitenant.cluster_sim, so swap that for a subclass that applies
    # uniform priorities after construction.
    class UniformRemoteDAG(RemoteDAG):
        def __init__(self, circuit, mapping):
            super().__init__(circuit, mapping)
            apply_priorities(self, uniform_priorities(self))

    monkeypatch.setattr(cluster_sim, "RemoteDAG", UniformRemoteDAG)
    uniform_mean = float(
        np.mean(
            [
                executor.execute(
                    circuit, placement.mapping, seed=s
                ).completion_time
                for s in seeds
            ]
        )
    )
    print(f"\nAblation (priorities): longest-path={priority_mean:.0f} uniform={uniform_mean:.0f}")
    assert priority_mean != uniform_mean
    assert priority_mean <= uniform_mean * 1.10


@pytest.mark.paper_artifact("ablation")
def test_ablation_batch_ordering_direction(benchmark):
    """Eq. 11 ordering direction: light-jobs-first vs heavy-jobs-first vs FIFO.

    Placing the lighter jobs first (the library default) should not be slower
    than placing the heavy jobs first; FIFO is printed for reference.  At paper
    scale (20-job batches over 50 batches) the gap widens; the reduced default
    keeps the ablation to a few seconds.
    """
    from repro.multitenant import BatchManager, BatchManagerConfig

    cloud = default_cloud(seed=7)
    batch = generate_batch("qugan", batch_size=8, seed=3)
    seeds = (2, 5)

    def mean_jct(batch_manager):
        times = []
        for seed in seeds:
            results = MultiTenantSimulator(
                cloud,
                placement_algorithm=CloudQCPlacement(),
                network_scheduler=CloudQCScheduler(),
                batch_manager=batch_manager,
            ).run_batch(batch, seed=seed)
            times.extend(r.job_completion_time for r in results)
        return float(np.mean(times))

    def run():
        return mean_jct(priority_batch_manager())

    light_first = benchmark.pedantic(run, rounds=1, iterations=1)
    heavy_first = mean_jct(BatchManager(BatchManagerConfig(descending=True)))
    fifo = mean_jct(fifo_batch_manager())
    print(
        f"\nAblation (batch order): light-first={light_first:.0f} "
        f"heavy-first={heavy_first:.0f} fifo={fifo:.0f}"
    )
    assert light_first <= heavy_first * 1.05


@pytest.mark.paper_artifact("ablation")
def test_ablation_imbalance_factor_sweep(benchmark):
    """Sweeping imbalance factors should not lose to a single fixed factor."""
    cloud = default_cloud(seed=7)
    circuit = get_circuit("qugan_n111")

    def run():
        sweep = CloudQCPlacement().place(circuit, cloud, seed=1)
        fixed = CloudQCPlacement(imbalance_factors=(0.05,)).place(circuit, cloud, seed=1)
        return sweep.num_remote_operations(), fixed.num_remote_operations()

    sweep_ops, fixed_ops = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nAblation (imbalance sweep): sweep={sweep_ops} fixed(0.05)={fixed_ops}")
    assert sweep_ops <= fixed_ops
