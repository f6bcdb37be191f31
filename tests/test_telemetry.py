"""Tests for the bounded-memory streaming telemetry subsystem.

Covers the GK quantile sketch (including Hypothesis property tests that pin
the documented rank-error bound across adversarial distributions), the
netted maximum queue depth and the per-instant depths of the event stream,
the event stream round trip, the sketch-backed
``StreamSummary.from_telemetry``, and -- most importantly -- golden A/B
tests that attaching a sink leaves every seeded run bit-identical across
all four schedulers, with ``telemetry=None`` runs unchanged from PR-5.
"""

from __future__ import annotations

import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import ghz, ising
from repro.analysis import default_cloud as make_default_cloud
from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud import job as job_module
from repro.multitenant import (
    TELEMETRY_EVENTS,
    CheckpointConfig,
    DeadlineRescue,
    MultiTenantSimulator,
    QuantileSketch,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    fifo_batch_manager,
    generate_anchor_burst_trace,
    iter_events,
    queue_depth_timeseries,
    read_snapshot,
    write_trace,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import (
    AverageScheduler,
    CloudQCScheduler,
    GreedyScheduler,
    RandomScheduler,
)

SCHEDULERS = [
    CloudQCScheduler,
    GreedyScheduler,
    AverageScheduler,
    RandomScheduler,
]


def rank_error(sorted_data, estimate, percentile):
    """Relative rank distance between an estimate and the target rank."""
    n = len(sorted_data)
    lo = np.searchsorted(sorted_data, estimate, side="left")
    hi = np.searchsorted(sorted_data, estimate, side="right")
    target = percentile / 100.0 * n
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


def gk_bound(epsilon, n):
    """The documented worst-case relative rank error: (2 eps n + 1) / n."""
    return (2.0 * epsilon * n + 1.0) / n


# ----------------------------------------------------------------------
# QuantileSketch unit tests
# ----------------------------------------------------------------------
class TestQuantileSketch:
    def test_empty(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(7.0)
        for p in (0, 1, 50, 99, 100):
            assert sketch.percentile(p) == 7.0
        assert sketch.min == 7.0 and sketch.max == 7.0
        assert sketch.mean == 7.0 and sketch.sum == 7.0

    def test_exact_side_stats(self):
        values = [5.0, -2.0, 9.5, 0.0, 3.25]
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        assert sketch.count == len(values)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.mean == pytest.approx(np.mean(values))

    def test_tiny_n_median(self):
        sketch = QuantileSketch()
        for v in (5.0, 1.0, 3.0):
            sketch.add(v)
        assert sketch.percentile(50) == 3.0

    def test_extremes_always_exact(self):
        rng = np.random.default_rng(11)
        sketch = QuantileSketch(epsilon=0.01)
        data = rng.pareto(1.2, 50_000)
        for v in data:
            sketch.add(float(v))
        assert sketch.quantile(0.0) == data.min()
        assert sketch.quantile(1.0) == data.max()

    def test_memory_is_sublinear(self):
        sketch = QuantileSketch(epsilon=0.005)
        for v in range(100_000):
            sketch.add(float(v))
        # GK holds O((1/eps) log(eps n)) tuples; at eps=0.005 that is a few
        # hundred for 100k sorted inserts, vs 100k for the exact list.
        assert sketch.size < 2_000

    def test_rejects_nan(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(float("nan"))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            QuantileSketch(epsilon=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(epsilon=0.5)

    @pytest.mark.parametrize(
        "data",
        [
            np.arange(20_000, dtype=float),            # sorted (P2's nemesis)
            np.arange(20_000, dtype=float)[::-1],      # reverse sorted
            np.full(10_000, 3.14),                     # constant
            np.random.default_rng(0).pareto(1.1, 20_000),   # heavy-tailed
            np.random.default_rng(1).lognormal(0, 2, 20_000),
            np.repeat([1.0, 2.0, 3.0], 4_000),         # heavy duplicates
        ],
        ids=["sorted", "reverse", "constant", "pareto", "lognormal", "dupes"],
    )
    def test_rank_bound_on_adversarial_streams(self, data):
        epsilon = 0.005
        sketch = QuantileSketch(epsilon=epsilon)
        for v in data:
            sketch.add(float(v))
        ordered = np.sort(np.asarray(data, dtype=float))
        bound = gk_bound(epsilon, len(ordered))
        for p in (1, 10, 25, 50, 75, 90, 95, 99):
            err = rank_error(ordered, sketch.percentile(p), p)
            assert err <= bound, f"p{p}: rank error {err} exceeds {bound}"


class TestQuantileSketchProperties:
    """Hypothesis: the rank bound holds for arbitrary inputs and epsilons."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=400,
        ),
        percentile=st.sampled_from([1, 10, 50, 90, 95, 99]),
    )
    def test_rank_bound_holds(self, values, percentile):
        epsilon = 0.01
        sketch = QuantileSketch(epsilon=epsilon)
        for v in values:
            sketch.add(v)
        ordered = np.sort(np.asarray(values, dtype=float))
        err = rank_error(ordered, sketch.percentile(percentile), percentile)
        assert err <= gk_bound(epsilon, len(ordered))

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_side_stats_exact(self, values):
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        assert sketch.count == len(values)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.sum == pytest.approx(math.fsum(values), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=2_000),
        percentile=st.sampled_from([50, 95, 99]),
    )
    def test_sorted_stream_rank_bound(self, n, percentile):
        # Sorted input is the adversarial case P2-style heuristics lose on;
        # GK's bound must hold at every prefix length.
        epsilon = 0.01
        sketch = QuantileSketch(epsilon=epsilon)
        for v in range(n):
            sketch.add(float(v))
        ordered = np.arange(n, dtype=float)
        err = rank_error(ordered, sketch.percentile(percentile), percentile)
        assert err <= gk_bound(epsilon, n)


# ----------------------------------------------------------------------
# The queue-depth series the sink observes: its netted maximum
# ----------------------------------------------------------------------
class TestDepthSeries:
    def test_max_tracks_the_peak(self):
        sink = Telemetry()
        for time, step in enumerate([1, 1, -1, 1, 1, -1, -1, -1]):
            if step > 0:
                sink.job_admitted(f"job-{time}", float(time))
            else:
                sink.job_placed(f"job-{time}", float(time))
        assert sink.depth == 0
        assert sink.max_queue_depth == 3

    def test_same_time_netting(self):
        # Depths at one instant net out, matching
        # metrics.queue_depth_timeseries semantics: jobs placed at their
        # own arrival instant never raise the maximum.
        sink = Telemetry()
        for job in ("a", "b"):
            sink.job_admitted(job, 1.0)
        for job in ("a", "b"):
            sink.job_placed(job, 1.0)
        assert sink.max_queue_depth == 0
        sink.job_admitted("c", 2.0)
        # The open instant counts before a later one closes it.
        assert sink.max_queue_depth == 1
        sink.job_placed("c", 3.0)
        assert sink.max_queue_depth == 1


def netted_depths(events):
    """The (time, depth) steps an event stream records: the last depth of
    each instant, where it differs from the previous instant's."""
    instants = []
    for record in map(json.loads, events.splitlines()):
        if "depth" not in record:
            continue
        if instants and instants[-1][0] == record["t"]:
            instants[-1] = (record["t"], record["depth"])
        else:
            instants.append((record["t"], record["depth"]))
    steps, depth = [], 0
    for time, after in instants:
        if after != depth:
            steps.append((time, after))
            depth = after
    return steps


# ----------------------------------------------------------------------
# Shared run harness (the PR-5 golden configuration)
# ----------------------------------------------------------------------
def result_key(result):
    return (
        result.job_id,
        result.circuit_name,
        result.arrival_time,
        result.placement_time,
        result.completion_time,
        result.num_remote_operations,
        result.num_qpus_used,
        result.outcome,
        result.num_preemptions,
        result.num_migrations,
        result.wasted_time,
        result.wasted_ops,
    )


def small_cloud():
    return QuantumCloud(
        CloudTopology.line(4),
        computing_qubits_per_qpu=16,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.9,
    )


def run_golden_stream(
    scheduler_cls,
    telemetry=None,
    keep_results=True,
    tenants=None,
    admission_policy=None,
    preemption_policy=None,
):
    # Realign the process-global job counter so comparable runs mint
    # identical job ids (scheduler tiebreaks read the id strings).
    job_module._job_counter = itertools.count()
    simulator = MultiTenantSimulator(
        small_cloud(),
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=scheduler_cls(),
        batch_manager=fifo_batch_manager(),
        admission_policy=admission_policy,
        preemption_policy=preemption_policy,
    )
    circuits = [ghz(24), ising(34), ghz(16), ghz(24)]
    arrivals = [0.0, 11.0, 25.0, 40.0]
    return simulator.run_stream(
        circuits,
        arrivals,
        seed=7,
        telemetry=telemetry,
        keep_results=keep_results,
        tenants=tenants,
    )


def run_burst_replay(telemetry=None, preemption_policy=None, keep_results=True):
    job_module._job_counter = itertools.count()
    trace = generate_anchor_burst_trace(cycles=6, fillers_per_cycle=8)
    simulator = MultiTenantSimulator(
        small_cloud(),
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(30.0),
        preemption_policy=preemption_policy,
    )
    return simulator.run_stream(
        trace.circuits,
        trace.arrival_times,
        seed=7,
        telemetry=telemetry,
        keep_results=keep_results,
        tenants=trace.tenant_ids,
    )


# ----------------------------------------------------------------------
# Golden A/B: attaching telemetry must not move a single bit
# ----------------------------------------------------------------------
class TestTelemetryBitIdentity:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_sink_attached_run_bit_identical(self, scheduler_cls):
        baseline = run_golden_stream(scheduler_cls)
        observed = run_golden_stream(scheduler_cls, telemetry=Telemetry())
        assert [result_key(r) for r in baseline] == [
            result_key(r) for r in observed
        ]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_event_stream_attached_run_bit_identical(self, scheduler_cls):
        baseline = run_golden_stream(scheduler_cls)
        sink = Telemetry(events=io.StringIO())
        observed = run_golden_stream(
            scheduler_cls, telemetry=sink, tenants=["a", "b", "a", "c"]
        )
        assert [result_key(r) for r in baseline] == [
            result_key(r) for r in observed
        ]

    def test_golden_stream_default_cloud_unchanged(self):
        # The exact pinned numbers of test_admission.py's golden stream --
        # the telemetry=None default path must reproduce PR-5 outputs.
        job_module._job_counter = itertools.count()
        cloud = make_default_cloud(seed=7)
        simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=CloudQCPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
        )
        results = simulator.run_stream(
            [ghz(24), ising(34), ghz(16)], [0.0, 40.0, 80.0], seed=2
        )
        assert all(r.completed for r in results)
        completions = [r.completion_time for r in results]
        assert completions == pytest.approx([23.1, 66.0, 95.1], abs=0.5)

    def test_preemption_active_run_bit_identical(self):
        baseline = run_burst_replay(
            preemption_policy=DeadlineRescue(horizon=5.0)
        )
        observed = run_burst_replay(
            telemetry=Telemetry(),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )
        assert [result_key(r) for r in baseline] == [
            result_key(r) for r in observed
        ]


# ----------------------------------------------------------------------
# Sketch-backed summary vs the exact result-list summary
# ----------------------------------------------------------------------
class TestFromTelemetry:
    def test_counters_and_means_match_exact_summary(self):
        sink = Telemetry()
        results = run_burst_replay(telemetry=sink)
        exact = StreamSummary.from_results(results)
        sketched = StreamSummary.from_telemetry(sink)
        assert sketched.total == exact.total
        assert sketched.completed == exact.completed
        assert sketched.rejected == exact.rejected
        assert sketched.expired == exact.expired
        assert sketched.rejection_rate == pytest.approx(exact.rejection_rate)
        assert sketched.queueing.count == exact.queueing.count
        assert sketched.queueing.mean == pytest.approx(exact.queueing.mean)
        assert sketched.completion.count == exact.completion.count
        assert sketched.completion.mean == pytest.approx(exact.completion.mean)
        assert sketched.completion.maximum == pytest.approx(
            exact.completion.maximum
        )
        assert sketched.preemption == exact.preemption
        assert sketched.max_queue_depth == exact.max_queue_depth

    def test_percentiles_within_rank_bound(self):
        sink = Telemetry()
        results = run_burst_replay(telemetry=sink)
        jcts = np.sort(
            [r.job_completion_time for r in results if r.completed]
        )
        bound = gk_bound(sink.jct.epsilon, len(jcts))
        for p in (50, 90, 99):
            err = rank_error(jcts, sink.jct.percentile(p), p)
            assert err <= bound

    def test_drop_aware_percentile_matches_exact(self):
        from repro.multitenant import drop_aware_jct_percentile

        sink = Telemetry()
        results = run_burst_replay(telemetry=sink)
        # The burst replay expires ~20% of jobs, so high percentiles go inf
        # in both the exact and the sketch-backed computation.
        assert math.isinf(drop_aware_jct_percentile(results, 99))
        assert math.isinf(sink.drop_aware_jct_percentile(99))
        exact_p50 = drop_aware_jct_percentile(results, 50)
        assert math.isfinite(exact_p50)
        assert math.isfinite(sink.drop_aware_jct_percentile(50))

    def test_tenant_counts(self):
        sink = Telemetry()
        run_burst_replay(telemetry=sink)
        # Anchor-burst traces round-robin nine tenants; every job finishes
        # with some terminal outcome.
        assert sum(
            sum(counts.values()) for counts in sink.tenant_counts.values()
        ) == sink.total


# ----------------------------------------------------------------------
# keep_results=False (the bounded-memory mode)
# ----------------------------------------------------------------------
class TestKeepResults:
    def test_returns_empty_list(self):
        sink = Telemetry()
        results = run_burst_replay(telemetry=sink, keep_results=False)
        assert results == []
        assert sink.total == 54
        assert sink.completed + sink.outcome_counts["expired"] == 54

    def test_requires_sink(self):
        with pytest.raises(ValueError):
            run_golden_stream(CloudQCScheduler, keep_results=False)

    def test_summary_identical_to_retained_run(self):
        retained_sink = Telemetry()
        run_burst_replay(telemetry=retained_sink)
        dropped_sink = Telemetry()
        run_burst_replay(telemetry=dropped_sink, keep_results=False)
        assert retained_sink.summary() == dropped_sink.summary()


# ----------------------------------------------------------------------
# Queue-depth series of the event stream: exact under preemption (the
# documented queue_depth_timeseries undercount)
# ----------------------------------------------------------------------
class TestQueueDepthSeries:
    def test_matches_reconstruction_without_preemption(self):
        buffer = io.StringIO()
        sink = Telemetry(events=buffer)
        results = run_burst_replay(telemetry=sink)
        assert netted_depths(buffer.getvalue()) == queue_depth_timeseries(results)
        assert sink.max_queue_depth == max(
            depth for _, depth in queue_depth_timeseries(results)
        )

    def test_exact_under_preemption_where_reconstruction_undercounts(self):
        buffer = io.StringIO()
        sink = Telemetry(events=buffer)
        results = run_burst_replay(
            telemetry=sink, preemption_policy=DeadlineRescue(horizon=5.0)
        )
        reconstructed = queue_depth_timeseries(results)
        online = netted_depths(buffer.getvalue())
        # DeadlineRescue requeues evicted victims; the per-job results only
        # record each job's FIRST queue stay, so the reconstruction misses
        # every requeue interval and undercounts the peak.
        assert sum(r.num_preemptions for r in results) > 0
        reconstructed_max = max(depth for _, depth in reconstructed)
        assert sink.max_queue_depth > reconstructed_max
        assert sink.max_queue_depth == max(depth for _, depth in online)
        assert len(online) != len(reconstructed)
        # The online series ends with an empty queue: every admitted or
        # requeued job eventually left it.
        assert online[-1][1] == 0

    def test_depth_returns_to_zero(self):
        sink = Telemetry()
        run_burst_replay(
            telemetry=sink, preemption_policy=DeadlineRescue(horizon=5.0)
        )
        assert sink.depth == 0


# ----------------------------------------------------------------------
# Event stream: schema and offline round trip
# ----------------------------------------------------------------------
class TestEventStream:
    def test_events_conform_to_schema(self):
        buffer = io.StringIO()
        sink = Telemetry(events=buffer)
        run_burst_replay(
            telemetry=sink, preemption_policy=DeadlineRescue(horizon=5.0)
        )
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert records, "run emitted no events"
        for record in records:
            assert record["event"] in TELEMETRY_EVENTS
            assert isinstance(record["t"], (int, float))
            assert isinstance(record["job"], str)
        kinds = {record["event"] for record in records}
        assert {"job_arrived", "admitted", "placed", "completed"} <= kinds
        assert "preempted" in kinds and "requeued" in kinds
        for record in records:
            if record["event"] == "completed":
                assert {"jct", "wait", "qpus_used"} <= record.keys()
            if record["event"] in ("admitted", "requeued", "placed"):
                assert "depth" in record

    def test_round_trip_reproduces_online_summary(self):
        buffer = io.StringIO()
        sink = Telemetry(events=buffer)
        run_burst_replay(
            telemetry=sink, preemption_policy=DeadlineRescue(horizon=5.0)
        )
        rebuilt = Telemetry.from_events(buffer.getvalue().splitlines())
        assert rebuilt.summary() == sink.summary()
        assert rebuilt.outcome_counts == sink.outcome_counts
        assert rebuilt.tenant_counts == sink.tenant_counts
        assert rebuilt.qpu_placements == sink.qpu_placements
        assert rebuilt.max_queue_depth == sink.max_queue_depth

    def test_round_trip_from_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with Telemetry(events=path) as sink:
            run_burst_replay(telemetry=sink)
        online = sink.summary()
        rebuilt = Telemetry.from_events(path)
        assert rebuilt.summary() == online

    def test_round_trip_from_path_object(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(events=str(path)) as sink:
            run_burst_replay(telemetry=sink)
        assert Telemetry.from_events(path).summary() == sink.summary()

    def test_iter_events_reads_a_path_object(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "admitted", "t": 0.0, "job": "j0"}\n')
        assert list(iter_events(path)) == [
            {"event": "admitted", "t": 0.0, "job": "j0"}
        ]

    def test_path_event_stream_in_a_checkpointed_run(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace(
            trace_path,
            generate_anchor_burst_trace(cycles=2, fillers_per_cycle=4)
            .iter_records(),
        )
        events_path = tmp_path / "events.jsonl"
        snap_path = str(tmp_path / "snap.json")
        outputs = []
        for events in (str(events_path), events_path):
            job_module._job_counter = itertools.count()
            with Telemetry(events=events) as sink:
                MultiTenantSimulator(
                    small_cloud(),
                    placement_algorithm=CloudQCPlacement(),
                    network_scheduler=CloudQCScheduler(),
                ).run_stream(
                    trace=trace_path,
                    seed=7,
                    telemetry=sink,
                    checkpoint=CheckpointConfig(path=snap_path, every_jobs=2),
                )
            with open(snap_path, "rb") as snapshot:
                outputs.append((events_path.read_bytes(), snapshot.read()))
        assert outputs[1] == outputs[0]
        saved = read_snapshot(snap_path)["state"]["telemetry"]["events"]
        assert saved["path"] == str(events_path)

    def test_iter_events_skips_blank_lines(self):
        lines = ['{"event": "admitted", "t": 0.0, "job": "j0"}', "", "  "]
        assert len(list(iter_events(lines))) == 1

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            Telemetry.from_events(['{"event": "nonsense", "t": 0, "job": "x"}'])

    def test_close_owns_path_stream(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = Telemetry(events=path)
        sink.job_admitted("job-0", 0.0)
        sink.close()
        with open(path) as stream:
            assert json.loads(stream.read())["depth"] == 1
        # Closing twice is harmless.
        sink.close()
