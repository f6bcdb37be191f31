"""Tests for the batch manager's ordering policies."""

import pytest

from repro.circuits import QuantumCircuit
from repro.cloud import Job
from repro.multitenant import (
    BatchManager,
    BatchManagerConfig,
    BatchMode,
    fifo_batch_manager,
    priority_batch_manager,
)


def make_job(num_qubits, two_qubit_gates, serial=False, arrival=0.0, name="job"):
    """Build a job: ``serial`` chains every CX on one pair (deep), otherwise the
    gates are spread over disjoint pairs (shallow and wide)."""
    circuit = QuantumCircuit(num_qubits, name=name)
    pairs = [(q, q + 1) for q in range(0, num_qubits - 1, 2)]
    for index in range(two_qubit_gates):
        a, b = pairs[0] if serial else pairs[index % len(pairs)]
        circuit.cx(a, b)
    return Job(circuit=circuit, arrival_time=arrival)


class TestPriorityOrdering:
    def test_orders_lightest_job_first_by_default(self):
        small = make_job(4, 2, name="small")
        large = make_job(12, 30, serial=True, name="large")
        manager = priority_batch_manager()
        ordered = manager.order([small, large])
        assert ordered[0] is small

    def test_descending_flag_reverses_order(self):
        small = make_job(4, 2, name="small")
        large = make_job(12, 30, serial=True, name="large")
        manager = BatchManager(BatchManagerConfig(descending=True))
        assert manager.order([small, large])[0] is large

    def test_metric_matches_job_formula(self):
        job = make_job(6, 6)
        manager = priority_batch_manager()
        assert manager.metric(job) == pytest.approx(job.priority_metric())

    def test_custom_weights_change_order(self):
        deep = make_job(4, 30, serial=True, name="deep")
        wide = make_job(30, 3, name="wide")
        depth_first = BatchManager(
            BatchManagerConfig(lambda_density=0.0, lambda_qubits=0.0, lambda_depth=1.0)
        )
        width_first = BatchManager(
            BatchManagerConfig(lambda_density=0.0, lambda_qubits=1.0, lambda_depth=0.0)
        )
        # Ascending order: the job scoring lowest on the active weight first.
        assert depth_first.order([deep, wide])[0] is wide
        assert width_first.order([deep, wide])[0] is deep

    def test_order_does_not_mutate_input(self):
        jobs = [make_job(4, 2), make_job(8, 10)]
        original = list(jobs)
        priority_batch_manager().order(jobs)
        assert jobs == original

    def test_select_next(self):
        small = make_job(4, 2)
        large = make_job(12, 30, serial=True)
        assert priority_batch_manager().select_next([small, large]) is small

    def test_select_next_empty_raises(self):
        with pytest.raises(ValueError):
            priority_batch_manager().select_next([])

    def test_equal_metric_ties_follow_numeric_job_ids(self):
        ninth = make_job(6, 4)
        tenth = make_job(6, 4)
        ninth.job_id, tenth.job_id = "job-9", "job-10"
        manager = priority_batch_manager()
        assert manager.metric(ninth) == manager.metric(tenth)
        assert manager.order([tenth, ninth]) == [ninth, tenth]
        descending = BatchManager(BatchManagerConfig(descending=True))
        assert descending.order([ninth, tenth]) == [tenth, ninth]


class TestFifoOrdering:
    def test_orders_by_arrival(self):
        late = make_job(4, 2, arrival=10.0)
        early = make_job(12, 30, serial=True, arrival=1.0)
        ordered = fifo_batch_manager().order([late, early])
        assert ordered[0] is early

    def test_mode_enum(self):
        assert fifo_batch_manager().config.mode is BatchMode.FIFO
        assert priority_batch_manager().config.mode is BatchMode.PRIORITY

    def test_fifo_ties_keep_submission_order(self):
        a = make_job(4, 2, arrival=0.0)
        b = make_job(4, 2, arrival=0.0)
        ordered = fifo_batch_manager().order([b, a])
        assert ordered == [b, a]


class TestArrivalFilter:
    """``order(jobs, now=...)`` is the event-driven simulator's admissible
    queue at one decision point: not-yet-arrived jobs are excluded."""

    def test_now_excludes_future_arrivals(self):
        early = make_job(4, 2, arrival=0.0, name="early")
        late = make_job(4, 2, arrival=50.0, name="late")
        ordered = fifo_batch_manager().order([early, late], now=10.0)
        assert ordered == [early]

    def test_now_keeps_jobs_arriving_exactly_now(self):
        job = make_job(4, 2, arrival=10.0)
        assert priority_batch_manager().order([job], now=10.0) == [job]

    def test_no_now_keeps_everything(self):
        early = make_job(4, 2, arrival=0.0)
        late = make_job(4, 2, arrival=50.0)
        assert len(priority_batch_manager().order([early, late])) == 2

    def test_select_next_with_now(self):
        early = make_job(4, 2, arrival=0.0)
        late = make_job(2, 1, arrival=50.0)
        assert fifo_batch_manager().select_next([late, early], now=0.0) is early

    def test_select_next_nothing_arrived_raises(self):
        late = make_job(4, 2, arrival=50.0)
        with pytest.raises(ValueError):
            fifo_batch_manager().select_next([late], now=0.0)
