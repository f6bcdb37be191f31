"""Tests for the EPR generation model."""

import numpy as np
import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.network import EPRModel


@pytest.fixture
def line_topology() -> CloudTopology:
    return CloudTopology.line(4)


class TestEprModel:
    def test_same_qpu_is_certain(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        assert model.pair_success_probability(1, 1) == 1.0
        assert model.hops(1, 1) == 0

    def test_single_hop_probability(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        assert model.pair_success_probability(0, 1) == pytest.approx(0.3)

    def test_multi_hop_probability_multiplies(self, line_topology):
        model = EPRModel(line_topology, 0.5)
        assert model.pair_success_probability(0, 3) == pytest.approx(0.125)
        assert model.hops(0, 3) == 3

    def test_round_success_with_redundancy(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        single = model.round_success_probability(0, 1, 1)
        triple = model.round_success_probability(0, 1, 3)
        assert triple == pytest.approx(1 - 0.7 ** 3)
        assert triple > single
        assert model.round_success_probability(0, 1, 0) == 0.0

    def test_expected_rounds(self, line_topology):
        model = EPRModel(line_topology, 0.25)
        assert model.expected_rounds(0, 1, 1) == pytest.approx(4.0)
        assert model.expected_rounds(0, 1, 0) == float("inf")

    def test_sample_round_statistics(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        rng = np.random.default_rng(1)
        samples = [model.sample_round(0, 1, 1, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.3, abs=0.03)

    def test_sample_round_zero_attempts_never_succeeds(self, line_topology):
        model = EPRModel(line_topology, 0.9)
        rng = np.random.default_rng(1)
        assert not model.sample_round(0, 1, 0, rng)

    def test_sample_round_reads_its_table_until_emptied(self, line_topology):
        # sample_round keeps a pair's probability from its first sample, so a
        # changed override applies to it only after clear_pair_table;
        # round_success_probability resolves the path live.
        cloud = QuantumCloud(line_topology)
        model = EPRModel(line_topology, 1.0, qpu_probability=cloud.qpu_epr_probability)
        rng = np.random.default_rng(1)
        assert model.sample_round(0, 1, 1, rng)
        cloud.set_qpu_epr_probability(1, 1e-12)
        assert model.round_success_probability(0, 1, 1) == pytest.approx(1e-12)
        assert all(model.sample_round(0, 1, 1, rng) for _ in range(100))
        model.clear_pair_table()
        assert not any(model.sample_round(0, 1, 1, rng) for _ in range(100))

    def test_invalid_probability(self, line_topology):
        with pytest.raises(ValueError):
            EPRModel(line_topology, 0.0)
