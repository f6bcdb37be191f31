"""Tests for the placement fast path: resource versioning and PlacementContext.

Covers the invalidation contract of the version-keyed caches: ``admit`` /
``release`` bump ``resource_version``; a stale community/QPU-set entry is
never served after the cloud mutates; and warm-cache placements equal
cold-cache placements bit-for-bit.  No cache key holds a seed: partitions and
communities always run with ``PLACEMENT_SEED``.
"""

from __future__ import annotations

import pytest

from repro.circuits import InteractionGraph
from repro.circuits.library import get_circuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.community import select_qpu_community
from repro.partition import partition_graph
from repro.placement import (
    CloudQCBFSPlacement,
    CloudQCPlacement,
    PlacementContext,
    bfs_qpu_set,
    community_qpu_set,
)
from repro.placement.context import PLACEMENT_SEED


@pytest.fixture
def cloud():
    return QuantumCloud(
        CloudTopology.line(6),
        computing_qubits_per_qpu=10,
        communication_qubits_per_qpu=4,
    )


class TestResourceVersion:
    def test_admit_bumps_version(self, cloud):
        before = cloud.resource_version
        cloud.admit("job-a", {0: 0, 1: 0, 2: 1})
        assert cloud.resource_version > before

    def test_release_bumps_version(self, cloud):
        cloud.admit("job-a", {0: 0, 1: 1})
        before = cloud.resource_version
        assert cloud.release("job-a") == 2
        assert cloud.resource_version > before

    def test_noop_release_does_not_bump(self, cloud):
        cloud.admit("job-a", {0: 0})
        before = cloud.resource_version
        assert cloud.release("ghost") == 0
        assert cloud.resource_version == before

    def test_direct_qpu_mutation_bumps(self, cloud):
        # Caches must stay correct even when a QPU is mutated directly.
        before = cloud.resource_version
        cloud.qpu(3).allocate_computing("job-x", 2)
        assert cloud.resource_version > before

    def test_version_is_monotonic(self, cloud):
        seen = [cloud.resource_version]
        cloud.admit("a", {0: 0, 1: 2})
        seen.append(cloud.resource_version)
        cloud.admit("b", {0: 4})
        seen.append(cloud.resource_version)
        cloud.release("a")
        seen.append(cloud.resource_version)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)


class TestCloudCaches:
    def test_resource_graph_cached_per_version(self, cloud):
        graph = cloud.resource_graph()
        assert cloud.resource_graph() is graph  # same object, same version
        cloud.admit("job-a", {0: 0, 1: 0})
        fresh = cloud.resource_graph()
        assert fresh is not graph
        assert fresh.nodes[0]["available"] == 8

    def test_available_computing_cached_copy_is_safe(self, cloud):
        first = cloud.available_computing()
        first[0] = -999  # mutating the returned dict must not poison the cache
        assert cloud.available_computing()[0] == 10
        cloud.admit("job-a", {0: 2})
        assert cloud.available_computing()[2] == 9

    def test_clone_empty_starts_fresh(self, cloud):
        cloud.admit("job-a", {0: 0})
        clone = cloud.clone_empty()
        assert clone.resource_version == 0
        assert clone.available_computing()[0] == 10


class TestPlacementContext:
    def test_interaction_graph_cached_per_circuit(self):
        context = PlacementContext()
        circuit = get_circuit("ghz_n8")
        assert context.interaction_csr(circuit) is context.interaction_csr(circuit)
        other = get_circuit("qft_n16")
        assert context.interaction_csr(other) is not context.interaction_csr(circuit)

    def test_partition_cached_per_parts_and_imbalance(self):
        context = PlacementContext()
        circuit = get_circuit("qft_n16")
        first = context.partition(circuit, 3, 0.3)
        assert context.partition(circuit, 3, 0.3) is first
        assert context.partition(circuit, 4, 0.3) is not first
        assert context.partition(circuit, 3, 0.05) is not first
        assert context.stats()["partitions"] == 3

    def test_partition_matches_uncached(self):
        context = PlacementContext()
        circuit = get_circuit("qft_n16")
        expected = partition_graph(
            InteractionGraph.from_circuit(circuit).to_networkx(),
            3,
            imbalance=0.3,
            seed=PLACEMENT_SEED,
        )
        assert context.partition(circuit, 3, 0.3) == expected

    def test_community_qpu_set_matches_uncached(self, cloud):
        context = PlacementContext()
        cached = community_qpu_set(cloud, 24, min_qpus=3, context=context)
        uncached = select_qpu_community(
            cloud.resource_graph(), 24, min_qpus=3, seed=PLACEMENT_SEED
        )
        assert cached == uncached
        # A hit returns an equal list without aliasing the cached tuple.
        again = community_qpu_set(cloud, 24, min_qpus=3, context=context)
        assert again == cached and again is not cached

    def test_attempts_with_different_seeds_share_entries(self, cloud):
        circuit = get_circuit("ghz_n24")
        context = PlacementContext()
        CloudQCPlacement().place(circuit, cloud, seed=1, context=context)
        misses = context.misses
        CloudQCPlacement().place(circuit, cloud, seed=2, context=context)
        # Every lookup of the second attempt hits.
        assert context.misses == misses
        assert context.hits > 0

    def test_stale_entry_never_served_after_mutation(self, cloud):
        context = PlacementContext()
        before = community_qpu_set(cloud, 40, min_qpus=4, context=context)
        # Drain three QPUs: the availability map changes, so the cached QPU
        # set for the old version must not be reused.
        cloud.admit("hog", {q: qpu for q, qpu in enumerate([0] * 10 + [1] * 10 + [2] * 10)})
        after = community_qpu_set(cloud, 25, min_qpus=3, context=context)
        fresh = community_qpu_set(cloud, 25, min_qpus=3)
        assert after == fresh
        assert not set(after) <= {0, 1, 2}  # drained QPUs cannot cover 25 qubits

    def test_bfs_qpu_set_memoized_and_invalidated(self, cloud):
        context = PlacementContext()
        first = bfs_qpu_set(cloud, 24, min_qpus=3, context=context)
        assert bfs_qpu_set(cloud, 24, min_qpus=3, context=context) == first
        assert first == bfs_qpu_set(cloud, 24, min_qpus=3)
        cloud.admit("hog", {q: 5 for q in range(10)})
        assert bfs_qpu_set(cloud, 24, min_qpus=3, context=context) == bfs_qpu_set(
            cloud, 24, min_qpus=3
        )

    def test_eviction_bound(self):
        context = PlacementContext()
        context.max_entries = 8
        circuit = get_circuit("qft_n16")
        imbalances = [0.01 * (index + 1) for index in range(40)]
        for imbalance in imbalances:
            context.partition(circuit, 3, imbalance)
        assert len(context._partitions) <= 8
        # Evicted entries recompute to the same value.
        expected = partition_graph(
            InteractionGraph.from_circuit(circuit).to_networkx(),
            3,
            imbalance=imbalances[0],
            seed=PLACEMENT_SEED,
        )
        assert context.partition(circuit, 3, imbalances[0]) == expected

    def test_hit_rate_accounting(self, cloud):
        context = PlacementContext()
        assert context.hit_rate == 0.0
        circuit = get_circuit("ghz_n8")
        context.interaction_csr(circuit)
        context.interaction_csr(circuit)
        assert context.hits == 1 and context.misses == 1
        assert context.hit_rate == 0.5
        assert context.stats()["interaction_graphs"] == 1


class TestWarmEqualsCold:
    @pytest.mark.parametrize("algorithm_cls", [CloudQCPlacement, CloudQCBFSPlacement])
    def test_shared_context_is_bit_identical(self, cloud, algorithm_cls):
        circuit = get_circuit("ghz_n24")
        algorithm = algorithm_cls()
        context = PlacementContext()
        cold = algorithm.place(circuit, cloud, seed=9)
        warm_miss = algorithm.place(circuit, cloud, seed=9, context=context)
        warm_hit = algorithm.place(circuit, cloud, seed=9, context=context)
        assert cold.mapping == warm_miss.mapping == warm_hit.mapping
        assert cold.score == warm_miss.score == warm_hit.score
        assert cold.metadata == warm_miss.metadata == warm_hit.metadata

    def test_context_survives_cloud_mutation(self, cloud):
        circuit = get_circuit("ghz_n24")
        algorithm = CloudQCPlacement()
        context = PlacementContext()
        algorithm.place(circuit, cloud, seed=9, context=context)
        cloud.admit("tenant", {q: 3 for q in range(6)})
        warm = algorithm.place(circuit, cloud, seed=9, context=context)
        fresh = algorithm.place(circuit, cloud, seed=9)
        assert warm.mapping == fresh.mapping
        assert warm.score == fresh.score
