"""Tests for the multi-tenant completion-time metrics."""

import math

import numpy as np
import pytest

from repro.multitenant import (
    CompletionStats,
    JobOutcome,
    PreemptionStats,
    QueueingDelayStats,
    StreamSummary,
    TenantJobResult,
    drop_aware_jct_percentile,
    max_queue_depth,
    outcome_counts,
    queue_depth_timeseries,
    queueing_delays,
    rejection_rate,
    relative_to_baseline,
)


class TestCompletionStats:
    def test_from_times(self):
        stats = CompletionStats.from_times([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.maximum == 4.0

    def test_empty(self):
        stats = CompletionStats.from_times([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_numpy_array_input(self):
        # Regression: truthiness on a 2+-element numpy array raises the
        # ambiguous-truth-value ValueError; emptiness must use len().
        stats = CompletionStats.from_times(np.array([1.0, 2.0, 3.0, 4.0]))
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)

    def test_empty_numpy_array_input(self):
        stats = CompletionStats.from_times(np.array([]))
        assert stats.count == 0


class TestRelative:
    def test_relative_to_baseline(self):
        values = {"CloudQC": 50.0, "Greedy": 100.0}
        relative = relative_to_baseline(values, "CloudQC")
        assert relative["CloudQC"] == 1.0
        assert relative["Greedy"] == 2.0

    def test_missing_baseline(self):
        with pytest.raises(KeyError):
            relative_to_baseline({"a": 1.0}, "b")

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_to_baseline({"a": 0.0}, "a")


def result(
    job_id="job-0",
    arrival=0.0,
    placement=0.0,
    completion=10.0,
    outcome=JobOutcome.COMPLETED,
    dropped=None,
):
    nan = float("nan")
    is_completed = outcome == JobOutcome.COMPLETED
    return TenantJobResult(
        job_id=job_id,
        circuit_name="ghz_n4",
        arrival_time=arrival,
        placement_time=placement if is_completed else nan,
        completion_time=completion if is_completed else nan,
        num_remote_operations=0,
        num_qpus_used=1 if is_completed else 0,
        outcome=outcome,
        dropped_time=dropped,
    )


class TestStreamMetrics:
    def test_outcome_counts_and_rejection_rate(self):
        results = [
            result("job-0"),
            result("job-1", outcome=JobOutcome.REJECTED, arrival=1.0, dropped=1.0),
            result("job-2", outcome=JobOutcome.EXPIRED, arrival=2.0, dropped=7.0),
            result("job-3", arrival=3.0, placement=4.0, completion=9.0),
        ]
        counts = outcome_counts(results)
        assert counts == {
            "completed": 2,
            "rejected": 1,
            "expired": 1,
            "preempted": 0,
            "failed": 0,
        }
        assert rejection_rate(results) == pytest.approx(0.5)

    def test_rejection_rate_empty(self):
        assert rejection_rate([]) == 0.0

    def test_rejection_rate_numpy_array_input(self):
        # Regression: `if not results:` on a numpy object array of 2+
        # elements raised the ambiguous-truth-value ValueError.
        results = np.array(
            [
                result("job-0"),
                result("job-1", outcome=JobOutcome.REJECTED, dropped=1.0),
            ],
            dtype=object,
        )
        assert rejection_rate(results) == pytest.approx(0.5)
        assert rejection_rate(np.array([], dtype=object)) == 0.0

    def test_queueing_delays_exclude_rejected(self):
        results = [
            result("job-0", arrival=0.0, placement=5.0),
            result("job-1", outcome=JobOutcome.REJECTED, arrival=1.0, dropped=1.0),
            result("job-2", outcome=JobOutcome.EXPIRED, arrival=2.0, dropped=10.0),
        ]
        assert queueing_delays(results) == [5.0, 8.0]
        assert queueing_delays(results, include_expired=False) == [5.0]

    def test_queueing_delay_stats_percentiles(self):
        results = [
            result(f"job-{i}", arrival=0.0, placement=float(i))
            for i in range(101)
        ]
        stats = QueueingDelayStats.from_results(results)
        assert stats.count == 101
        assert stats.p50 == pytest.approx(50.0)
        assert stats.p95 == pytest.approx(95.0)
        assert stats.p99 == pytest.approx(99.0)

    def test_queueing_delay_stats_empty(self):
        stats = QueueingDelayStats.from_results([])
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_queue_depth_timeseries_steps(self):
        results = [
            # In queue [0, 4]; placed at 4.
            result("job-0", arrival=0.0, placement=4.0, completion=9.0),
            # In queue [1, 6]; expired at 6.
            result("job-1", outcome=JobOutcome.EXPIRED, arrival=1.0, dropped=6.0),
            # Rejected: never queued.
            result("job-2", outcome=JobOutcome.REJECTED, arrival=2.0, dropped=2.0),
        ]
        assert queue_depth_timeseries(results) == [
            (0.0, 1),
            (1.0, 2),
            (4.0, 1),
            (6.0, 0),
        ]
        assert max_queue_depth(results) == 2

    def test_queue_depth_nets_same_instant_events(self):
        # Placed at its own arrival instant: no depth change registers.
        results = [result("job-0", arrival=5.0, placement=5.0, completion=9.0)]
        assert queue_depth_timeseries(results) == []
        assert max_queue_depth(results) == 0

    def test_stream_summary_aggregates(self):
        results = [
            result("job-0", arrival=0.0, placement=3.0, completion=10.0),
            result("job-1", outcome=JobOutcome.REJECTED, arrival=1.0, dropped=1.0),
            result("job-2", outcome=JobOutcome.EXPIRED, arrival=2.0, dropped=8.0),
        ]
        summary = StreamSummary.from_results(results)
        assert summary.total == 3
        assert summary.completed == 1
        assert summary.rejected == 1
        assert summary.expired == 1
        assert summary.rejection_rate == pytest.approx(2 / 3)
        assert summary.queueing.count == 2
        assert summary.completion.count == 1
        assert summary.completion.mean == pytest.approx(10.0)
        assert summary.max_queue_depth == 2


def preempted_result(job_id, preemptions=1, migrations=0, wasted=0.0,
                     outcome=JobOutcome.COMPLETED, completion=20.0):
    base = result(job_id, arrival=0.0, placement=2.0, completion=completion,
                  outcome=outcome, dropped=None if outcome == JobOutcome.COMPLETED else 15.0)
    return TenantJobResult(
        job_id=base.job_id,
        circuit_name=base.circuit_name,
        arrival_time=base.arrival_time,
        placement_time=base.placement_time,
        completion_time=base.completion_time,
        num_remote_operations=base.num_remote_operations,
        num_qpus_used=base.num_qpus_used,
        outcome=base.outcome,
        dropped_time=base.dropped_time,
        num_preemptions=preemptions,
        num_migrations=migrations,
        wasted_time=wasted,
    )


class TestPreemptionMetrics:
    def test_preemption_stats(self):
        results = [
            preempted_result("job-0", preemptions=2, wasted=7.5),
            preempted_result("job-1", preemptions=1, migrations=2, wasted=1.5,
                             outcome=JobOutcome.PREEMPTED),
            result("job-2"),
        ]
        stats = PreemptionStats.from_results(results)
        assert stats.preempted_jobs == 2
        assert stats.stranded == 1
        assert stats.preemption_events == 3
        assert stats.migration_events == 2
        assert stats.wasted_time == pytest.approx(9.0)

    def test_stream_summary_carries_preemption_stats(self):
        results = [preempted_result("job-0", preemptions=1, wasted=3.0)]
        summary = StreamSummary.from_results(results)
        assert summary.preemption.preemption_events == 1
        assert summary.preemption.wasted_time == pytest.approx(3.0)

    def test_queue_depth_uses_first_placement_for_stranded_jobs(self):
        # A stranded-preempted job ran from its first placement: it left the
        # arrival queue then, not at its (much later) final eviction.
        ran_then_stranded = TenantJobResult(
            job_id="job-0",
            circuit_name="ghz_n4",
            arrival_time=0.0,
            placement_time=2.0,
            completion_time=float("nan"),
            num_remote_operations=0,
            num_qpus_used=0,
            outcome=JobOutcome.PREEMPTED,
            dropped_time=50.0,
            num_preemptions=1,
        )
        assert queue_depth_timeseries([ran_then_stranded]) == [
            (0.0, 1),
            (2.0, 0),
        ]

    def test_drop_aware_percentile(self):
        # 10 jobs, one dropped: p99 must be unbounded, p50 finite.
        results = [
            result(f"job-{i}", arrival=0.0, placement=0.0, completion=float(i + 1))
            for i in range(9)
        ] + [result("job-9", outcome=JobOutcome.EXPIRED, arrival=0.0, dropped=4.0)]
        assert drop_aware_jct_percentile(results, 99) == math.inf
        assert drop_aware_jct_percentile(results, 50) == pytest.approx(5.0)
        assert drop_aware_jct_percentile([], 99) == 0.0

    def test_drop_aware_percentile_all_completed(self):
        results = [
            result(f"job-{i}", arrival=0.0, placement=0.0, completion=float(i + 1))
            for i in range(100)
        ]
        assert drop_aware_jct_percentile(results, 99) == pytest.approx(99.0)
