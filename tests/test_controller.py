"""Tests for the cloud controller."""

import pytest

from repro.cloud import Controller, JobStatus, PlacementError


class TestSubmission:
    def test_submit_registers_job(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit, arrival_time=5.0)
        assert controller.jobs == {job.job_id: job}
        assert job.status is JobStatus.PENDING

    def test_unknown_job_lookup_returns_none(self, small_cloud):
        controller = Controller(small_cloud)
        assert controller.jobs.get("missing") is None


class TestPlacementLifecycle:
    def test_place_reserves_cloud_resources(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        assert job.status is JobStatus.PLACED
        assert small_cloud.qpu(0).computing_available == 3

    def test_place_unknown_job_raises(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        from repro.cloud import Job

        rogue = Job(circuit=bell_circuit)
        with pytest.raises(KeyError):
            controller.place(rogue, {0: 0, 1: 1})

    def test_double_place_rejected(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        with pytest.raises(PlacementError):
            controller.place(job, {0: 2, 1: 3})

    def test_start_requires_placed(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        with pytest.raises(PlacementError):
            controller.start(job, 0.0)

    def test_complete_releases_resources(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit, arrival_time=0.0)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        controller.complete(job, 9.0)
        assert job.status is JobStatus.COMPLETED
        assert small_cloud.total_computing_available() == 16


class TestDropTransition:
    """The unified drop path: release reservations iff the job holds any."""

    def test_drop_of_placed_job_releases(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.drop(job)
        assert job.status is JobStatus.FAILED
        assert small_cloud.total_computing_available() == 16

    def test_drop_of_running_job_releases(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        controller.drop(job)
        assert job.status is JobStatus.FAILED
        assert small_cloud.total_computing_available() == 16

    def test_drop_of_pending_job_does_not_touch_the_cloud(
        self, small_cloud, bell_circuit
    ):
        # Regression: the old path unconditionally released, which was wrong
        # for never-admitted jobs (rejected at arrival / expired in queue).
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        version = small_cloud.resource_version
        controller.drop(job)
        assert job.status is JobStatus.FAILED
        assert small_cloud.resource_version == version


class TestPreemptTransition:
    def test_preempt_running_job_requeues_and_releases(
        self, small_cloud, bell_circuit
    ):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        controller.preempt(job, 7.0)
        assert job.status is JobStatus.PENDING
        assert job.placement is None
        assert job.start_time is None
        assert job.num_preemptions == 1
        assert job.last_preempted_time == 7.0
        assert small_cloud.total_computing_available() == 16

    def test_preempted_job_can_be_placed_again(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        controller.preempt(job, 7.0)
        controller.place(job, {0: 2, 1: 3})
        controller.start(job, 9.0)
        assert job.status is JobStatus.RUNNING
        assert job.qubits_per_qpu() == {2: 1, 3: 1}

    def test_preempt_requires_a_reservation(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        with pytest.raises(PlacementError):
            controller.preempt(job, 0.0)


class TestMigrateTransition:
    def test_migrate_moves_the_reservation(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        controller.migrate(job, {0: 2, 1: 2}, 5.0)
        assert job.status is JobStatus.RUNNING
        assert job.num_migrations == 1
        assert job.last_migrated_time == 5.0
        assert small_cloud.qpu(0).computing_available == 4
        assert small_cloud.qpu(1).computing_available == 4
        assert small_cloud.qpu(2).computing_available == 2

    def test_migrate_can_reuse_its_own_qubits(self, small_cloud, bell_circuit):
        # The old reservation is released before the new one is admitted, so
        # consolidating onto a QPU the job already occupies works.
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        small_cloud.qpus[0].allocate_computing("other", 2)
        controller.migrate(job, {0: 0, 1: 0}, 5.0)  # 2 + own 1 <= 4
        assert small_cloud.qpu(0).computing_held_by(job.job_id) == 2
        assert small_cloud.qpu(1).computing_available == 4

    def test_failed_migrate_restores_the_old_reservation(
        self, small_cloud, bell_circuit
    ):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 0, 1: 1})
        controller.start(job, 1.0)
        small_cloud.qpus[2].allocate_computing("other", 3)
        with pytest.raises(PlacementError):
            controller.migrate(job, {0: 2, 1: 2}, 5.0)  # 2 > 1 free on QPU 2
        assert job.status is JobStatus.RUNNING
        assert job.num_migrations == 0
        assert job.placement == {0: 0, 1: 1}
        assert small_cloud.qpu(0).computing_held_by(job.job_id) == 1
        assert small_cloud.qpu(1).computing_held_by(job.job_id) == 1

    def test_migrate_requires_a_reservation(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        with pytest.raises(PlacementError):
            controller.migrate(job, {0: 0, 1: 0}, 0.0)

    def test_cloud_status_reports_all_qpus(self, small_cloud, bell_circuit):
        controller = Controller(small_cloud)
        job = controller.submit(bell_circuit)
        controller.place(job, {0: 2, 1: 2})
        assert [qpu.computing_used for qpu in small_cloud.qpus.values()] == [
            0, 0, 2, 0
        ]
