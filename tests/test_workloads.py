"""Tests for the multi-tenant workload generators."""

import pytest

from repro.multitenant import (
    TRACE_CIRCUIT_POOL,
    WORKLOADS,
    generate_batch,
    generate_cluster_trace,
    workload_circuits,
)


class TestWorkloadDefinitions:
    def test_four_workloads_defined(self):
        assert set(sorted(WORKLOADS)) == {"mixed", "qft", "qugan", "arithmetic"}

    def test_mixed_contents_match_paper(self):
        assert set(workload_circuits("mixed")) == {
            "knn_n129",
            "qugan_n111",
            "qugan_n71",
            "qft_n63",
            "multiplier_n45",
            "multiplier_n75",
        }

    def test_qft_workload_sizes(self):
        assert workload_circuits("qft") == ["qft_n29", "qft_n63", "qft_n100"]

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            workload_circuits("nope")

    def test_workload_circuits_returns_copy(self):
        names = workload_circuits("qugan")
        names.append("bogus")
        assert "bogus" not in WORKLOADS["qugan"]


class TestBatchGeneration:
    def test_batch_size_and_membership(self):
        batch = generate_batch("qugan", batch_size=6, seed=1)
        assert len(batch) == 6
        allowed = set(workload_circuits("qugan"))
        assert all(circuit.name in allowed for circuit in batch)

    def test_batches_are_seeded(self):
        a = generate_batch("arithmetic", batch_size=5, seed=3)
        b = generate_batch("arithmetic", batch_size=5, seed=3)
        assert [c.name for c in a] == [c.name for c in b]

    def test_different_seeds_differ(self):
        a = generate_batch("mixed", batch_size=10, seed=1)
        b = generate_batch("mixed", batch_size=10, seed=2)
        assert [c.name for c in a] != [c.name for c in b]

    def test_explicit_name_pool(self):
        batch = generate_batch("mixed", batch_size=4, seed=1, names=["qft_n29"])
        assert all(circuit.name == "qft_n29" for circuit in batch)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            generate_batch("qft", batch_size=0)

    def test_circuits_are_cached_instances(self):
        a = generate_batch("qugan", batch_size=3, seed=1)
        b = generate_batch("qugan", batch_size=3, seed=1)
        by_name_a = {c.name: c for c in a}
        by_name_b = {c.name: c for c in b}
        for name in by_name_a:
            assert by_name_a[name] is by_name_b[name]


class TestClusterTrace:
    def test_trace_is_deterministic(self):
        a = generate_cluster_trace(50, num_tenants=10, seed=4)
        b = generate_cluster_trace(50, num_tenants=10, seed=4)
        assert a.arrival_times == b.arrival_times
        assert a.tenant_ids == b.tenant_ids
        assert [c.name for c in a.circuits] == [c.name for c in b.circuits]

    def test_trace_shape_and_ordering(self):
        trace = generate_cluster_trace(200, num_tenants=50, seed=1)
        assert len(trace) == 200
        assert len(trace.arrival_times) == len(trace.circuits) == 200
        assert len(trace.tenant_ids) == 200
        assert trace.arrival_times[0] == 0.0  # rebased via trace_arrivals
        assert trace.arrival_times == sorted(trace.arrival_times)
        assert all(0 <= t < 50 for t in trace.tenant_ids)
        assert 1 <= trace.num_tenants <= 50

    def test_job_sizes_are_heavy_tailed(self):
        trace = generate_cluster_trace(2000, num_tenants=100, seed=2)
        names = [c.name for c in trace.circuits]
        smallest = TRACE_CIRCUIT_POOL[0]
        # The smallest circuit dominates; every name is from the pool.
        assert names.count(smallest) > len(names) / 3
        assert set(names) <= set(TRACE_CIRCUIT_POOL)
        assert len(set(names)) > 1

    def test_diurnal_modulation_changes_local_density(self):
        # With strong modulation, arrivals cluster around rate peaks: the
        # count in the busiest period-sized window far exceeds the quietest.
        trace = generate_cluster_trace(
            3000,
            num_tenants=10,
            base_rate=1.0,
            diurnal_amplitude=0.9,
            diurnal_period=1000.0,
            seed=7,
        )
        times = trace.arrival_times
        window = 250.0
        counts = []
        edge = 0.0
        while edge < times[-1]:
            counts.append(sum(1 for t in times if edge <= t < edge + window))
            edge += window
        assert max(counts) > 2 * (min(counts) + 1)

    def test_custom_pool(self):
        trace = generate_cluster_trace(30, num_tenants=5, seed=1, names=["ghz_n4"])
        assert {c.name for c in trace.circuits} == {"ghz_n4"}

    def test_empty_trace(self):
        trace = generate_cluster_trace(0)
        assert len(trace) == 0
        assert trace.arrival_times == []
        assert trace.num_tenants == 0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            generate_cluster_trace(-1)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, num_tenants=0)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, base_rate=0.0)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, diurnal_amplitude=-0.1)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, diurnal_period=0.0)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, size_tail=0.0)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, tenant_skew=-1.0)
        with pytest.raises(ValueError):
            generate_cluster_trace(10, names=[])


class TestAnchorBurstTrace:
    def test_shape_and_ordering(self):
        from repro.multitenant import generate_anchor_burst_trace

        trace = generate_anchor_burst_trace(3, 4)
        assert len(trace) == 3 * (1 + 4)
        assert trace.arrival_times == sorted(trace.arrival_times)
        # Each cycle leads with the anchor (tenant 0), then the fillers.
        assert trace.tenant_ids[:5] == [0, 1, 2, 3, 4]
        names = [c.name for c in trace.circuits[:5]]
        assert names == ["ghz_n51", "ghz_n9", "ghz_n9", "ghz_n9", "ghz_n9"]

    def test_deterministic_without_rng(self):
        from repro.multitenant import generate_anchor_burst_trace

        a = generate_anchor_burst_trace(2, 3)
        b = generate_anchor_burst_trace(2, 3)
        assert a.arrival_times == b.arrival_times
        assert [c.name for c in a.circuits] == [c.name for c in b.circuits]

    def test_empty_and_validation(self):
        from repro.multitenant import generate_anchor_burst_trace

        assert len(generate_anchor_burst_trace(0, 5)) == 0
        with pytest.raises(ValueError):
            generate_anchor_burst_trace(-1, 5)
        with pytest.raises(ValueError):
            generate_anchor_burst_trace(1, -1)
        with pytest.raises(ValueError):
            generate_anchor_burst_trace(1, 1, num_qpus=0)
        with pytest.raises(ValueError):
            generate_anchor_burst_trace(1, 1, burst_fraction=0.0)
        with pytest.raises(ValueError):
            generate_anchor_burst_trace(1, 1, period_factor=0.5)
