"""Property tests: resuming from any snapshot is bit-identical to the
uninterrupted run, across schedulers, with preemption and chaos active, and
with the per-job results dropped as jobs finish."""

import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cloud.job as job_module
import repro.multitenant.cluster_sim as cluster_sim
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    ChaosSpec,
    CheckpointConfig,
    DeadlineRescue,
    FaultInjector,
    MultiTenantSimulator,
    QuantileSketch,
    QueueingDeadline,
    Telemetry,
    generate_anchor_burst_trace,
    generate_fleet_events,
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


def canonical(results):
    """NaN-safe, field-complete comparison key for a result list."""
    return [repr(sorted(r.__dict__.items())) for r in results]


class _Scenario:
    """One workload, run uninterrupted and checkpointed, snapshots kept.

    Built lazily once per parameter set and cached for the module, so the
    hypothesis examples only pay for the resume they exercise.  A subclass
    can replay another workload by overriding ``_topology``, ``_records``,
    ``_make_sim`` and ``every_jobs``.
    """

    #: Checkpoint cadence of the checkpointed run, in finished jobs.
    every_jobs = 4

    def __init__(self, tmp_dir, scheduler, chaos, keep_results=True):
        self.dir = tmp_dir
        self.scheduler = scheduler
        self.chaos = chaos
        self.keep_results = keep_results
        self.trace_path = os.path.join(tmp_dir, "trace.jsonl")
        self.events_path = os.path.join(tmp_dir, "events.jsonl") if chaos else None
        self.topology = self._topology()
        write_trace(self.trace_path, self._records())

        baseline_events = os.path.join(tmp_dir, "events_base.jsonl")
        self.baseline = self._run(events_path=baseline_events)

        self.snapshots = []
        snap_path = os.path.join(tmp_dir, "snap.json")
        original_write = cluster_sim.write_snapshot

        def keep_copy(path, fingerprint, state):
            size = original_write(path, fingerprint, state)
            copy = os.path.join(tmp_dir, f"snap_{len(self.snapshots)}.json")
            shutil.copy(path, copy)
            self.snapshots.append(copy)
            return size

        cluster_sim.write_snapshot = keep_copy
        try:
            self.checkpointed = self._run(
                checkpoint=CheckpointConfig(
                    path=snap_path, every_jobs=self.every_jobs
                ),
                events_path=self.events_path,
            )
        finally:
            cluster_sim.write_snapshot = original_write
        if self.events_path is not None:
            with open(self.events_path, "rb") as handle:
                self.full_events = handle.read()
            with open(baseline_events, "rb") as handle:
                assert self.full_events == handle.read()

    @staticmethod
    def _topology():
        return CloudTopology.random(num_qpus=4, edge_probability=0.6, seed=2)

    @staticmethod
    def _records():
        return generate_anchor_burst_trace(
            3, 5, num_qpus=4, anchor="ghz_n24", filler="ghz_n5"
        ).iter_records()

    def _make_sim(self):
        cloud = QuantumCloud(self.topology, computing_qubits_per_qpu=10)
        kwargs = {}
        if self.chaos:
            events = generate_fleet_events(
                ChaosSpec(
                    duration=2000.0,
                    failure_rate=0.002,
                    drain_rate=0.001,
                    calibration_rate=0.002,
                ),
                qpu_ids=self.topology.qpu_ids,
                seed=5,
            )
            kwargs = dict(
                admission_policy=QueueingDeadline(60.0),
                preemption_policy=DeadlineRescue(horizon=5.0),
                fault_injector=FaultInjector(events),
            )
        return MultiTenantSimulator(
            cloud, CloudQCPlacement(), self.scheduler(), **kwargs
        )

    def _run(self, checkpoint=None, events_path=None):
        job_module.set_job_counter(0)
        telemetry = Telemetry(events=events_path) if self.chaos else None
        results = self._make_sim().run_stream(
            trace=self.trace_path,
            seed=9,
            telemetry=telemetry,
            keep_results=self.keep_results,
            checkpoint=checkpoint,
        )
        return self._outcome(results, telemetry)

    @staticmethod
    def _outcome(results, telemetry):
        """The results and, with a sink, its summary (all that is left of a
        run that drops its results)."""
        if telemetry is None:
            return canonical(results)
        telemetry.close()
        return canonical(results), repr(telemetry.summary())

    def resume(self, snapshot_index):
        if self.events_path is not None:
            # The resumed run truncates the events file back to the
            # snapshot's durable offset; restore the full file first so
            # every index starts from the same on-disk state.
            with open(self.events_path, "wb") as handle:
                handle.write(self.full_events)
        job_module.set_job_counter(0)
        telemetry = Telemetry() if self.chaos else None
        results = self._make_sim().resume_stream(
            self.snapshots[snapshot_index], telemetry=telemetry
        )
        resumed = self._outcome(results, telemetry)
        if self.events_path is not None:
            with open(self.events_path, "rb") as handle:
                assert handle.read() == self.full_events, (
                    "telemetry event bytes diverged after resume"
                )
        return resumed


_SCENARIOS = {}


def scenario(tmp_root, scheduler, chaos=False, keep_results=True):
    key = (scheduler.__name__, chaos, keep_results)
    if key not in _SCENARIOS:
        directory = os.path.join(
            tmp_root,
            f"{scheduler.__name__}_{'chaos' if chaos else 'plain'}"
            f"{'' if keep_results else '_dropped'}",
        )
        os.makedirs(directory, exist_ok=True)
        _SCENARIOS[key] = _Scenario(directory, scheduler, chaos, keep_results)
    return _SCENARIOS[key]


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("resume"))


class TestResumeBitIdentity:
    def test_checkpointing_does_not_change_results(self, tmp_root):
        for scheduler in SCHEDULERS:
            scn = scenario(tmp_root, scheduler)
            assert scn.checkpointed == scn.baseline, scheduler.__name__
            assert scn.snapshots  # cadence actually fired

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_resume_any_snapshot_any_scheduler(self, tmp_root, data):
        scheduler = data.draw(st.sampled_from(SCHEDULERS), label="scheduler")
        scn = scenario(tmp_root, scheduler)
        index = data.draw(
            st.integers(min_value=0, max_value=len(scn.snapshots) - 1),
            label="snapshot",
        )
        assert scn.resume(index) == scn.baseline

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_resume_under_chaos_with_telemetry(self, tmp_root, data):
        scn = scenario(tmp_root, CloudQCScheduler, chaos=True)
        index = data.draw(
            st.integers(min_value=0, max_value=len(scn.snapshots) - 1),
            label="snapshot",
        )
        assert scn.resume(index) == scn.baseline

    def test_resume_every_snapshot_without_kept_results(self, tmp_root):
        """A run that drops finished jobs resumes from every snapshot, also
        when a finished job's rescue check is still queued."""
        scn = scenario(tmp_root, CloudQCScheduler, chaos=True, keep_results=False)
        assert scn.baseline[0] == []
        for index in range(len(scn.snapshots)):
            assert scn.resume(index) == scn.baseline, f"snapshot {index}"

    def test_resume_inherits_checkpoint_cadence(self, tmp_root):
        """A resumed run keeps snapshotting to the same path by default."""
        scn = scenario(tmp_root, CloudQCScheduler)
        snapshot = scn.snapshots[0]
        with open(snapshot) as stream:
            target = json.load(stream)["state"]["checkpoint"]["path"]
        before = os.path.getmtime(target)
        job_module.set_job_counter(0)
        scn._make_sim().resume_stream(snapshot)
        assert os.path.getmtime(target) >= before
        # and the refreshed snapshot is itself resumable
        job_module.set_job_counter(0)
        assert canonical(scn._make_sim().resume_stream(target)) == scn.baseline


# ----------------------------------------------------------------------
# Sketch / queue-depth round-trip properties
# ----------------------------------------------------------------------


class TestSketchRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        before=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=120,
        ),
        after=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=120,
        ),
    )
    def test_quantile_sketch_roundtrip(self, before, after):
        direct = QuantileSketch(epsilon=0.01)
        source = QuantileSketch(epsilon=0.01)
        for value in before:
            direct.add(value)
            source.add(value)
        state = json.loads(json.dumps(source.checkpoint_state()))
        restored = QuantileSketch.from_state(state)
        for value in after:
            direct.add(value)
            restored.add(value)
        assert restored.size == direct.size
        assert restored.mean == direct.mean
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert restored.quantile(q) == direct.quantile(q)

    @settings(max_examples=40, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
            min_size=1,
            max_size=200,
        ),
        split=st.integers(min_value=0, max_value=200),
    )
    def test_depth_series_roundtrip(self, moves, split):
        """A sink restored mid-way through a series of queue transitions
        ends in the state of one that saw them all (the netted maximum
        depth and its open instant included)."""
        split = min(split, len(moves))
        direct = Telemetry()
        source = Telemetry()

        def apply(sink, steps, time):
            for advance, admit in steps:
                time += advance
                if admit or sink.depth == 0:
                    sink.job_admitted("job", float(time))
                else:
                    sink.job_placed("job", float(time))
            return time

        time = apply(direct, moves[:split], 0)
        apply(source, moves[:split], 0)
        restored = Telemetry()
        restored.restore_state(json.loads(json.dumps(source.checkpoint_state())))
        apply(direct, moves[split:], time)
        apply(restored, moves[split:], time)
        assert restored.max_queue_depth == direct.max_queue_depth
        assert restored.checkpoint_state() == direct.checkpoint_state()
