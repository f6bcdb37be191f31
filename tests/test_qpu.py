"""Tests for the QPU resource model."""

import pytest

from repro.cloud import QPU, ResourceError


class TestComputingQubits:
    def test_initial_state(self):
        qpu = QPU(qpu_id=0, computing_capacity=10, communication_capacity=3)
        assert qpu.computing_available == 10
        assert qpu.communication_capacity == 3
        assert qpu.utilization == 0.0

    def test_allocation_reduces_availability(self):
        qpu = QPU(qpu_id=0, computing_capacity=10)
        qpu.allocate_computing("job-a", 4)
        assert qpu.computing_available == 6
        assert qpu.computing_held_by("job-a") == 4

    def test_allocation_over_capacity_raises(self):
        qpu = QPU(qpu_id=0, computing_capacity=5)
        with pytest.raises(ResourceError):
            qpu.allocate_computing("job-a", 6)

    def test_incremental_allocation_same_job(self):
        qpu = QPU(qpu_id=0, computing_capacity=10)
        qpu.allocate_computing("job-a", 3)
        qpu.allocate_computing("job-a", 2)
        assert qpu.computing_held_by("job-a") == 5

    def test_release_frees_everything_for_job(self):
        qpu = QPU(qpu_id=0, computing_capacity=10)
        qpu.allocate_computing("job-a", 3)
        qpu.allocate_computing("job-b", 4)
        assert qpu.release_computing("job-a") == 3
        assert qpu.computing_available == 6
        assert qpu.jobs == {"job-b"}

    def test_release_unknown_job_is_noop(self):
        qpu = QPU(qpu_id=0, computing_capacity=10)
        assert qpu.release_computing("ghost") == 0

    def test_zero_allocation_rejected(self):
        qpu = QPU(qpu_id=0, computing_capacity=10)
        with pytest.raises(ValueError):
            qpu.allocate_computing("job-a", 0)

    def test_remaining_matches_available(self):
        qpu = QPU(qpu_id=0, computing_capacity=8)
        qpu.allocate_computing("job-a", 3)
        assert qpu.remaining == 5
        assert qpu.utilization == pytest.approx(3 / 8)


class TestValidation:
    def test_invalid_capacities(self):
        with pytest.raises(ValueError):
            QPU(qpu_id=0, computing_capacity=0)
        with pytest.raises(ValueError):
            QPU(qpu_id=0, communication_capacity=-1)

    def test_snapshot_contents(self):
        qpu = QPU(qpu_id=3, computing_capacity=6, communication_capacity=2)
        qpu.allocate_computing("job-a", 2)
        assert qpu.qpu_id == 3
        assert qpu.computing_capacity == 6
        assert qpu.computing_used == 2
        assert qpu.communication_capacity == 2
