"""Tests for the QuantumCloud resource manager."""

import pytest

from repro.analysis import default_cloud as make_default_cloud
from repro.cloud import CloudTopology, PlacementError, QuantumCloud


class TestConstruction:
    def test_default_cloud_matches_paper_setting(self):
        cloud = make_default_cloud(seed=1)
        assert cloud.num_qpus == 20
        assert cloud.total_computing_capacity() == 400
        assert cloud.total_communication_capacity() == 100
        assert cloud.epr_success_probability == 0.3

    def test_invalid_epr_probability(self):
        with pytest.raises(ValueError):
            QuantumCloud(CloudTopology.line(2), epr_success_probability=0.0)

    def test_custom_qpus_may_be_topology_subset(self):
        # Membership may cover only part of the wiring (standby QPUs wait
        # off-fleet for a join), but never reference unknown nodes.
        from repro.cloud import QPU

        topology = CloudTopology.line(3)
        cloud = QuantumCloud(topology, qpus={0: QPU(0), 1: QPU(1)})
        assert cloud.qpu_ids == [0, 1]
        with pytest.raises(ValueError):
            QuantumCloud(topology, qpus={0: QPU(0), 5: QPU(5)})
        with pytest.raises(ValueError):
            QuantumCloud(topology, qpus={})


class TestCapacityQueries:
    def test_available_and_remaining(self, small_cloud):
        assert small_cloud.total_computing_available() == 16
        assert small_cloud.remaining_qubits() == 16
        assert small_cloud.min_available_computing() == 4
        assert small_cloud.max_available_computing() == 4
        assert small_cloud.utilization() == 0.0

    def test_fits_anywhere_prefers_tightest_fit(self):
        topology = CloudTopology.line(3)
        cloud = QuantumCloud(topology, computing_qubits_per_qpu=10)
        cloud.admit("job-x", {0: 0, 1: 0, 2: 0, 3: 0})  # QPU0 now has 6 free
        assert cloud.fits_anywhere(5) == 0  # tightest fit is the partially used QPU
        assert cloud.fits_anywhere(8) in (1, 2)
        assert cloud.fits_anywhere(100) is None

    def test_can_fit(self, small_cloud):
        assert small_cloud.can_fit({0: 4, 1: 2})
        assert not small_cloud.can_fit({0: 5})

    def test_distance_delegates_to_topology(self, small_cloud):
        assert small_cloud.distance(0, 3) == 3


class TestAdmission:
    def test_admit_reserves_resources(self, small_cloud):
        small_cloud.admit("job-a", {0: 0, 1: 0, 2: 1})
        assert small_cloud.qpu(0).computing_available == 2
        assert small_cloud.qpu(1).computing_available == 3
        assert small_cloud.active_jobs() == ["job-a"]

    def test_admit_rejects_unknown_qpu(self, small_cloud):
        with pytest.raises(PlacementError):
            small_cloud.admit("job-a", {0: 99})

    def test_admit_is_atomic(self, small_cloud):
        # Demand on QPU 0 exceeds capacity; nothing should be reserved.
        with pytest.raises(PlacementError):
            small_cloud.admit("job-a", {q: 0 for q in range(5)})
        assert small_cloud.qpu(0).computing_available == 4

    def test_release_frees_resources(self, small_cloud):
        small_cloud.admit("job-a", {0: 0, 1: 1})
        freed = small_cloud.release("job-a")
        assert freed == 2
        assert small_cloud.total_computing_available() == 16
        assert small_cloud.active_jobs() == []

    def test_multiple_tenants_share_qpus(self, small_cloud):
        small_cloud.admit("job-a", {0: 0, 1: 0})
        small_cloud.admit("job-b", {0: 0, 1: 1})
        assert small_cloud.qpu(0).computing_available == 1
        assert sorted(small_cloud.active_jobs()) == ["job-a", "job-b"]

    def test_utilization_after_admission(self, small_cloud):
        small_cloud.admit("job-a", {q: 0 for q in range(4)})
        assert small_cloud.utilization() == pytest.approx(4 / 16)


class TestGraphViews:
    def test_resource_graph_annotations(self, small_cloud):
        small_cloud.admit("job-a", {0: 0, 1: 0})
        graph = small_cloud.resource_graph()
        assert graph.nodes[0]["available"] == 2
        assert graph.nodes[3]["available"] == 4
        # Edge weight reflects endpoint availability.
        assert graph[0][1]["weight"] == pytest.approx(1.0 + 2 + 4)

    def test_clone_empty_resets_allocations(self, small_cloud):
        small_cloud.admit("job-a", {0: 0})
        clone = small_cloud.clone_empty()
        assert clone.total_computing_available() == 16
        assert small_cloud.total_computing_available() == 15
        assert clone.topology is small_cloud.topology

    def test_snapshot_has_all_qpus(self, small_cloud):
        assert set(small_cloud.qpus) == {0, 1, 2, 3}


class TestPreviewWithout:
    def test_qubits_free_inside_and_restored_after(self, small_cloud):
        small_cloud.admit("job-a", {0: 0, 1: 0, 2: 1})
        before = small_cloud.available_computing()
        with small_cloud.preview_without("job-a"):
            assert small_cloud.qpu(0).computing_available == 4
            assert small_cloud.qpu(1).computing_available == 4
        assert small_cloud.available_computing() == before
        assert small_cloud.qpu(0).computing_held_by("job-a") == 2
        assert small_cloud.qpu(1).computing_held_by("job-a") == 1

    def test_resource_version_and_caches_untouched(self, small_cloud):
        # Regression: an uncommitted migration exploration must not move
        # the resource version -- it keys every failure signature and
        # placement cache, and equal versions must imply equal maps.
        small_cloud.admit("job-a", {0: 0, 1: 1})
        version = small_cloud.resource_version
        graph = small_cloud.resource_graph()
        with small_cloud.preview_without("job-a"):
            assert small_cloud.resource_version != version  # real inside
        assert small_cloud.resource_version == version
        assert small_cloud.resource_graph() is graph

    def test_restores_on_exception(self, small_cloud):
        small_cloud.admit("job-a", {0: 0, 1: 1})
        version = small_cloud.resource_version
        with pytest.raises(RuntimeError, match="boom"):
            with small_cloud.preview_without("job-a"):
                raise RuntimeError("boom")
        assert small_cloud.resource_version == version
        assert small_cloud.qpu(0).computing_held_by("job-a") == 1

    def test_preview_of_unknown_job_is_a_no_op(self, small_cloud):
        version = small_cloud.resource_version
        with small_cloud.preview_without("ghost"):
            assert small_cloud.resource_version == version
        assert small_cloud.resource_version == version


class TestFleetMembership:
    def test_remove_then_readd_strictly_increases_version(self, small_cloud):
        # Regression: resource_version was a pure sum of per-QPU counters, so
        # removing a QPU and adding it back returned to the pre-change value
        # and stale placement caches looked valid.  The membership epoch
        # keeps the version strictly increasing across fleet changes.
        v0 = small_cloud.resource_version
        qpu = small_cloud.remove_qpu(3)
        v1 = small_cloud.resource_version
        assert v1 > v0
        small_cloud.add_qpu(qpu)
        v2 = small_cloud.resource_version
        assert v2 > v1
        assert small_cloud.qpu_ids == [0, 1, 2, 3]

    def test_membership_change_invalidates_resource_graph(self, small_cloud):
        graph = small_cloud.resource_graph()
        assert 3 in graph
        removed = small_cloud.remove_qpu(3)
        shrunk = small_cloud.resource_graph()
        assert 3 not in shrunk
        assert not any(3 in edge for edge in shrunk.edges())
        small_cloud.add_qpu(removed)
        assert 3 in small_cloud.resource_graph()

    def test_add_rejects_member_and_unknown_node(self, small_cloud):
        from repro.cloud import QPU

        with pytest.raises(ValueError):
            small_cloud.add_qpu(QPU(0))
        with pytest.raises(ValueError):
            small_cloud.add_qpu(QPU(99))

    def test_remove_guards(self, small_cloud):
        from repro.cloud import ResourceError

        with pytest.raises(KeyError):
            small_cloud.remove_qpu(99)
        small_cloud.admit("job-a", {0: 2, 1: 2})
        with pytest.raises(ResourceError):
            small_cloud.remove_qpu(2)
        small_cloud.release("job-a")
        for qpu_id in (0, 1, 2):
            small_cloud.remove_qpu(qpu_id)
        with pytest.raises(ValueError):
            small_cloud.remove_qpu(3)  # never below one member

    def test_without_qpu_hides_and_restores(self, small_cloud):
        version = small_cloud.resource_version
        with small_cloud.without_qpu(2):
            assert small_cloud.qpu_ids == [0, 1, 3]
            assert 2 not in small_cloud.resource_graph()
        assert small_cloud.qpu_ids == [0, 1, 2, 3]
        assert small_cloud.resource_version == version
        assert 2 in small_cloud.resource_graph()


class TestPerQPUEprProbability:
    def test_set_get_and_clear(self, small_cloud):
        assert small_cloud.qpu_epr_probability(0) is None
        small_cloud.set_qpu_epr_probability(0, 0.05)
        assert small_cloud.qpu_epr_probability(0) == 0.05
        small_cloud.set_qpu_epr_probability(0, None)
        assert small_cloud.qpu_epr_probability(0) is None

    def test_validation(self, small_cloud):
        with pytest.raises(ValueError):
            small_cloud.set_qpu_epr_probability(0, 0.0)
        with pytest.raises(ValueError):
            small_cloud.set_qpu_epr_probability(0, 1.5)
        with pytest.raises(KeyError):
            small_cloud.set_qpu_epr_probability(99, 0.5)
        assert small_cloud.qpu_epr_probability(99) is None

    def test_link_probability_takes_endpoint_minimum(self, small_cloud):
        topology = small_cloud.topology
        default = small_cloud.epr_success_probability
        assert topology.link_success_probability(
            0, 1, default, small_cloud.qpu_epr_probability
        ) == pytest.approx(default)
        small_cloud.set_qpu_epr_probability(1, 0.05)
        assert topology.link_success_probability(
            0, 1, default, small_cloud.qpu_epr_probability
        ) == pytest.approx(0.05)
        assert topology.link_success_probability(
            2, 3, default, small_cloud.qpu_epr_probability
        ) == pytest.approx(default)
