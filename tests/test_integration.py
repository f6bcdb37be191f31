"""End-to-end integration tests across the full CloudQC pipeline."""

import pytest

from repro import CloudQCFramework
from repro.analysis import default_cloud
from repro.circuits.library import get_circuit
from repro.multitenant import (
    CompletionStats,
    MultiTenantSimulator,
    generate_batch,
    priority_batch_manager,
)
from repro.placement import (
    CloudQCBFSPlacement,
    CloudQCPlacement,
    RandomPlacement,
    SimulatedAnnealingPlacement,
)
from repro.scheduling import AverageScheduler, CloudQCScheduler, GreedyScheduler
from repro.sim import NetworkExecutor


class TestPlacementQualityShape:
    """The qualitative Table III result: CloudQC beats the baselines."""

    @pytest.mark.parametrize("name", ["ghz_n127", "ising_n66", "adder_n64"])
    def test_cloudqc_beats_random_and_sa_on_structured_circuits(self, name):
        cloud = default_cloud(seed=7)
        circuit = get_circuit(name)
        cloudqc = CloudQCPlacement().place(circuit, cloud, seed=1).num_remote_operations()
        random = RandomPlacement().place(circuit, cloud, seed=1).num_remote_operations()
        sa = (
            SimulatedAnnealingPlacement(iterations=1500)
            .place(circuit, cloud, seed=1)
            .num_remote_operations()
        )
        assert cloudqc < random
        assert cloudqc < sa

    def test_cloudqc_topology_awareness_beats_bfs_on_large_irregular_circuit(self):
        # On qft_n63 the remote-operation counts are close, but community
        # detection places the parts on tightly connected QPUs, so the
        # distance-weighted communication cost (Eq. 1) is clearly lower.
        cloud = default_cloud(seed=7)
        circuit = get_circuit("qft_n63")
        cloudqc = CloudQCPlacement().place(circuit, cloud, seed=1)
        bfs = CloudQCBFSPlacement().place(circuit, cloud, seed=1)
        assert cloudqc.communication_cost(cloud) < bfs.communication_cost(cloud)
        assert cloudqc.num_remote_operations() <= bfs.num_remote_operations() * 1.10


class TestSchedulingQualityShape:
    """The qualitative Fig. 22 result: CloudQC's scheduler beats Greedy on deep DAGs."""

    def test_cloudqc_scheduler_beats_greedy_on_qft(self):
        cloud = default_cloud(seed=7)
        circuit = get_circuit("qft_n63")
        placement = CloudQCPlacement().place(circuit, cloud, seed=1)
        cloudqc_time = (
            NetworkExecutor(cloud, CloudQCScheduler())
            .execute(circuit, placement.mapping, seed=3)
            .completion_time
        )
        greedy_time = (
            NetworkExecutor(cloud, GreedyScheduler())
            .execute(circuit, placement.mapping, seed=3)
            .completion_time
        )
        assert cloudqc_time < greedy_time

    def test_more_epr_success_means_faster_completion(self):
        cloud = default_cloud(seed=7)
        circuit = get_circuit("qugan_n71")
        placement = CloudQCPlacement().place(circuit, cloud, seed=1)
        low = (
            NetworkExecutor(cloud, CloudQCScheduler(), epr_success_probability=0.1)
            .execute(circuit, placement.mapping, seed=3)
            .completion_time
        )
        high = (
            NetworkExecutor(cloud, CloudQCScheduler(), epr_success_probability=0.5)
            .execute(circuit, placement.mapping, seed=3)
            .completion_time
        )
        assert high < low


class TestMultiTenantPipeline:
    def test_full_batch_through_framework(self):
        framework = CloudQCFramework.with_defaults(seed=11)
        batch = generate_batch("qugan", batch_size=4, seed=1)
        results = MultiTenantSimulator(
            framework.cloud,
            placement_algorithm=framework.placement_algorithm,
            network_scheduler=framework.network_scheduler,
            batch_manager=priority_batch_manager(),
            latency=framework.latency,
        ).run_batch(batch, seed=1)
        assert len(results) == 4
        stats = CompletionStats.from_times([r.job_completion_time for r in results])
        assert stats.maximum >= stats.mean >= 0
        times = sorted(r.job_completion_time for r in results)
        cdf = [(time, (index + 1) / len(times)) for index, time in enumerate(times)]
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_placement_quality_propagates_to_multitenant_jct(self):
        """A deliberately bad placement policy yields slower batches than CloudQC."""
        cloud = default_cloud(seed=11)
        batch = generate_batch("qugan", batch_size=4, seed=2)
        good = MultiTenantSimulator(
            cloud,
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=priority_batch_manager(),
        ).run_batch(batch, seed=3)
        bad = MultiTenantSimulator(
            cloud,
            placement_algorithm=RandomPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=priority_batch_manager(),
        ).run_batch(batch, seed=3)
        good_mean = sum(r.job_completion_time for r in good) / len(good)
        bad_mean = sum(r.job_completion_time for r in bad) / len(bad)
        assert good_mean < bad_mean
