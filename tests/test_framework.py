"""Tests for the CloudQCFramework facade."""

from repro import CloudQCFramework
from repro.circuits.library import ghz, ising


class TestFrameworkConstruction:
    def test_with_defaults(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        assert framework.cloud.num_qpus == 20
        assert framework.placement_algorithm.name == "cloudqc"
        assert framework.network_scheduler.name == "cloudqc"

    def test_seed_override(self):
        a = CloudQCFramework.with_defaults(seed=5)
        b = CloudQCFramework.with_defaults(seed=5)
        assert sorted(a.cloud.topology.links()) == sorted(b.cloud.topology.links())


class TestSingleCircuitPipeline:
    def test_place_circuit(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        placement = framework.place_circuit(ghz(48), seed=1)
        assert placement.respects_capacity(framework.cloud)

    def test_run_circuit_outcome(self):
        framework = CloudQCFramework.with_defaults(seed=3)
        outcome = framework.run_circuit(ising(34), seed=1)
        assert outcome.result.completion_time > 0
        assert outcome.result.num_remote_operations == outcome.placement.num_remote_operations()
        assert outcome.placement.metadata.get("communication_cost", 0.0) >= 0
