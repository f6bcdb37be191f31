"""Tests for the CloudQCFramework facade and its configuration objects."""

import pytest

from repro import CloudQCFramework, FrameworkConfig
from repro.circuits.library import get_circuit, ghz, ising
from repro.core import CloudConfig, PlacementConfig, SchedulingConfig
from repro.multitenant import BatchMode


class TestConfig:
    def test_default_cloud_config_matches_paper(self):
        cloud = CloudConfig(seed=1).build_cloud()
        assert cloud.num_qpus == 20
        assert cloud.qpu(0).computing_capacity == 20
        assert cloud.qpu(0).communication_capacity == 5
        assert cloud.epr_success_probability == pytest.approx(0.3)

    @pytest.mark.parametrize("kind", ["line", "ring", "star", "complete"])
    def test_alternative_topologies(self, kind):
        cloud = CloudConfig(num_qpus=6, topology=kind).build_cloud()
        assert cloud.num_qpus == 6

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            CloudConfig(topology="torus").build_cloud()

    def test_unknown_batch_mode(self):
        with pytest.raises(ValueError, match="batch_mode 'priorty'"):
            CloudQCFramework.from_config(FrameworkConfig(batch_mode="priorty"))

    def test_max_redundancy_needs_cloudqc_policy(self):
        config = FrameworkConfig(
            scheduling=SchedulingConfig(policy="greedy", max_redundancy=2)
        )
        with pytest.raises(ValueError, match="max_redundancy"):
            CloudQCFramework.from_config(config)

    def test_framework_config_defaults(self):
        config = FrameworkConfig()
        assert config.placement.algorithm == "cloudqc"
        assert config.scheduling.policy == "cloudqc"
        assert config.batch_mode == "priority"


class TestFrameworkConstruction:
    def test_with_defaults(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        assert framework.cloud.num_qpus == 20
        assert framework.placement_algorithm.name == "cloudqc"
        assert framework.network_scheduler.name == "cloudqc"

    def test_from_config_with_baselines(self):
        config = FrameworkConfig(
            cloud=CloudConfig(num_qpus=8, seed=2),
            placement=PlacementConfig(algorithm="random"),
            scheduling=SchedulingConfig(policy="greedy"),
            batch_mode="fifo",
        )
        framework = CloudQCFramework.from_config(config)
        assert framework.placement_algorithm.name == "random"
        assert framework.network_scheduler.name == "greedy"
        assert framework.batch_manager.config.mode is BatchMode.FIFO

    def test_seed_override(self):
        a = CloudQCFramework.from_config(FrameworkConfig(), seed=5)
        b = CloudQCFramework.from_config(FrameworkConfig(), seed=5)
        assert sorted(a.cloud.topology.links()) == sorted(b.cloud.topology.links())


class TestSingleCircuitPipeline:
    def test_place_circuit(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        placement = framework.place_circuit(ghz(48), seed=1)
        assert placement.respects_capacity(framework.cloud)

    def test_run_circuit_outcome(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        outcome = framework.run_circuit(ising(34), seed=1)
        assert outcome.completion_time > 0
        assert outcome.result.num_remote_operations == outcome.placement.num_remote_operations()
        assert outcome.communication_cost >= 0


class TestBatchPipeline:
    def test_run_batch_and_jct_helper(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        results = framework.run_batch(
            [ghz(16), ising(34), get_circuit("qft_n29")], seed=2
        )
        assert len(results) == 3
        jcts = framework.job_completion_times(results)
        assert len(jcts) == 3
        assert all(value >= 0 for value in jcts.values())
