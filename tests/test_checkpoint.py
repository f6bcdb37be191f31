"""Tests for crash-safe checkpointing: engine snapshots, the atomic
envelope, header validation, and the signal-triggered final snapshot."""

import json
import os
import signal

import pytest

import repro.cloud.job as job_module
from repro.circuits.library import ghz
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    AdmitAll,
    QueueDepthThreshold,
    CheckpointConfig,
    CheckpointError,
    CheckpointMismatchError,
    ClusterSimulationError,
    MultiTenantSimulator,
    Telemetry,
    TraceCursor,
    check_fingerprint,
    generate_anchor_burst_trace,
    read_snapshot,
    write_snapshot,
    write_trace,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler, GreedyScheduler
from repro.sim import EventLoop, SimulationError


# ----------------------------------------------------------------------
# EventLoop snapshot / restore
# ----------------------------------------------------------------------


class TestEngineSnapshot:
    def _make_loop(self, log):
        loop = EventLoop()
        loop.schedule(3.0, lambda env: log.append(("b", env.now)), label="b")
        loop.schedule(1.0, lambda env: log.append(("a", env.now)), label="a")
        loop.schedule(3.0, lambda env: log.append(("c", env.now)), label="c")
        return loop

    def test_roundtrip_executes_identically(self):
        direct_log = []
        direct = self._make_loop(direct_log)
        while direct.step():
            pass

        source_log = []
        state = self._make_loop(source_log).snapshot_state()
        restored_log = []
        callbacks = {
            "a": lambda env: restored_log.append(("a", env.now)),
            "b": lambda env: restored_log.append(("b", env.now)),
            "c": lambda env: restored_log.append(("c", env.now)),
        }
        fresh = EventLoop()
        fresh.restore_state(state, lambda label: callbacks[label])
        while fresh.step():
            pass
        assert restored_log == direct_log
        assert source_log == []  # snapshotting ran nothing

    def test_snapshot_survives_json_roundtrip(self):
        state = self._make_loop([]).snapshot_state()
        rehydrated = json.loads(json.dumps(state))
        fresh = EventLoop()
        log = []
        fresh.restore_state(rehydrated, lambda label: (lambda env: log.append(label)))
        while fresh.step():
            pass
        assert log == ["a", "b", "c"]

    def test_cancelled_events_are_dropped(self):
        loop = EventLoop()
        keep = loop.schedule(1.0, lambda env: None, label="keep")
        drop = loop.schedule(2.0, lambda env: None, label="drop")
        drop.cancel()
        state = loop.snapshot_state()
        assert [event[3] for event in state["events"]] == ["keep"]
        assert keep is not drop

    def test_sequence_numbers_preserved_verbatim(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda env: None, label="first")
        cancelled = loop.schedule(1.0, lambda env: None, label="gone")
        cancelled.cancel()
        loop.schedule(1.0, lambda env: None, label="third")
        state = loop.snapshot_state()
        # The cancelled event leaves a hole; surviving sequences keep
        # their original values so tie-breaking is bit-identical.
        assert [event[2] for event in state["events"]] == [0, 2]
        assert state["next_sequence"] == 3

    def test_restore_requires_fresh_loop(self):
        state = EventLoop().snapshot_state()
        used = EventLoop()
        used.schedule(1.0, lambda env: None)
        with pytest.raises(SimulationError):
            used.restore_state(state, lambda label: (lambda env: None))

    def test_restore_returns_handles_aligned_with_events(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda env: None, label="a")
        loop.schedule(2.0, lambda env: None, label="b")
        state = loop.snapshot_state()
        fresh = EventLoop()
        log = []
        handles = fresh.restore_state(
            state, lambda label: (lambda env, lab=label: log.append(lab))
        )
        assert len(handles) == 2
        handles[1].cancel()  # cancel "b" through the returned handle
        while fresh.step():
            pass
        assert log == ["a"]


# ----------------------------------------------------------------------
# CheckpointConfig validation
# ----------------------------------------------------------------------


class TestCheckpointConfig:
    def test_requires_path(self):
        with pytest.raises(CheckpointError):
            CheckpointConfig(path="")

    def test_every_jobs_positive(self):
        with pytest.raises(CheckpointError):
            CheckpointConfig(path="x", every_jobs=0)

    def test_signal_only_config_is_valid(self):
        config = CheckpointConfig(path="x")
        assert config.every_jobs is None


# ----------------------------------------------------------------------
# Atomic envelope IO
# ----------------------------------------------------------------------


class TestSnapshotIO:
    def test_roundtrip_and_size(self, tmp_path):
        path = str(tmp_path / "snap.json")
        state = {"now": 1.5, "events": [[1.0, 0, 3, "tick"]]}
        fingerprint = {"seed": 7}
        size = write_snapshot(path, fingerprint, state)
        assert size == os.path.getsize(path)
        envelope = read_snapshot(path)
        assert envelope["schema"] == CHECKPOINT_SCHEMA
        assert envelope["version"] == CHECKPOINT_VERSION
        assert envelope["fingerprint"] == fingerprint
        assert envelope["state"] == state

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "snap.json")
        write_snapshot(path, {}, {"x": 1})
        write_snapshot(path, {}, {"x": 2})  # overwrite in place
        assert os.listdir(tmp_path) == ["snap.json"]
        assert read_snapshot(path)["state"] == {"x": 2}

    def test_floats_roundtrip_bit_exactly(self, tmp_path):
        path = str(tmp_path / "snap.json")
        values = [0.1, 1e-300, 1071.3108285360672, float("inf")]
        write_snapshot(path, {}, {"values": values})
        restored = read_snapshot(path)["state"]["values"]
        assert all(a == b for a, b in zip(restored, values))

    def test_corrupt_state_fails_checksum(self, tmp_path):
        path = str(tmp_path / "snap.json")
        write_snapshot(path, {}, {"count": 41})
        with open(path) as handle:
            raw = handle.read()
        with open(path, "w") as handle:
            handle.write(raw.replace('"count":41', '"count":42'))
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_torn_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "snap.json")
        write_snapshot(path, {}, {"count": 41})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CheckpointError, match="corrupt|json"):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(str(tmp_path / "absent.json"))

    def test_missing_envelope_field(self, tmp_path):
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            json.dump(
                {"schema": CHECKPOINT_SCHEMA, "version": CHECKPOINT_VERSION},
                handle,
            )
        with pytest.raises(CheckpointError, match="missing"):
            read_snapshot(path)

    def test_wrong_schema(self, tmp_path):
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            json.dump({"schema": "not-a-checkpoint"}, handle)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.field == "schema"

    def test_wrong_version(self, tmp_path):
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            json.dump(
                {"schema": CHECKPOINT_SCHEMA, "version": CHECKPOINT_VERSION + 1},
                handle,
            )
        with pytest.raises(CheckpointMismatchError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.field == "version"

    def test_version_one_snapshot_refused(self, tmp_path):
        # Version 1 snapshots carry the sim-time cadence, the autoscaler
        # state and the migration ledger, which this layout no longer has.
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            json.dump({"schema": CHECKPOINT_SCHEMA, "version": 1}, handle)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.field == "version"
        assert excinfo.value.saved == 1

    def test_version_two_snapshot_refused(self, tmp_path):
        # Version 2 snapshots carry no per-job EPR-round counts.
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            json.dump({"schema": CHECKPOINT_SCHEMA, "version": 2}, handle)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.field == "version"
        assert excinfo.value.saved == 2

    def test_version_three_snapshot_refused(self, tmp_path):
        # Version 3 snapshots carry the work-loss model in the fingerprint
        # and wasted-work fields in each job's progress ledger; version 4
        # snapshots carry the telemetry's sampled queue-depth series;
        # version 5 snapshots carry the trace's format and the cursor's
        # first arrival.
        path = str(tmp_path / "snap.json")
        for version in (3, 4, 5):
            with open(path, "w") as handle:
                json.dump({"schema": CHECKPOINT_SCHEMA, "version": version}, handle)
            with pytest.raises(CheckpointMismatchError) as excinfo:
                read_snapshot(path)
            assert excinfo.value.field == "version"
            assert excinfo.value.saved == version


# ----------------------------------------------------------------------
# Fingerprint comparison
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_equal_fingerprints_pass(self):
        check_fingerprint({"a": 1, "b": "x"}, {"a": 1, "b": "x"})

    def test_first_differing_field_is_named(self):
        with pytest.raises(CheckpointMismatchError) as excinfo:
            check_fingerprint({"a": 1, "b": 2}, {"a": 1, "b": 3})
        assert excinfo.value.field == "b"
        assert excinfo.value.saved == 2
        assert excinfo.value.current == 3

    def test_absent_field_reported(self):
        with pytest.raises(CheckpointMismatchError) as excinfo:
            check_fingerprint({"a": 1}, {"a": 1, "extra": True})
        assert excinfo.value.field == "extra"
        assert excinfo.value.saved == "<absent>"


# ----------------------------------------------------------------------
# Resume refusal per mismatch class (real simulator runs)
# ----------------------------------------------------------------------


def _small_cloud():
    return QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=10)


def _make_sim(cloud=None, scheduler=None, admission=None):
    return MultiTenantSimulator(
        cloud or _small_cloud(),
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=scheduler or CloudQCScheduler(),
        admission_policy=admission,
    )


@pytest.fixture
def stream_snapshot(tmp_path):
    """A snapshot taken partway through a small trace replay."""
    trace_path = str(tmp_path / "trace.jsonl")
    write_trace(
        trace_path,
        generate_anchor_burst_trace(
            2, 4, num_qpus=3, anchor="ghz_n9", filler="ghz_n5"
        ).iter_records(),
    )
    snap_path = str(tmp_path / "snap.json")
    job_module.set_job_counter(0)
    _make_sim().run_stream(
        trace=trace_path,
        seed=3,
        checkpoint=CheckpointConfig(path=snap_path, every_jobs=3),
    )
    assert os.path.exists(snap_path)
    return snap_path


class TestResumeRefusal:
    def test_different_scheduler_refused(self, stream_snapshot):
        with pytest.raises(CheckpointMismatchError) as excinfo:
            _make_sim(scheduler=GreedyScheduler()).resume_stream(stream_snapshot)
        assert excinfo.value.field == "network_scheduler"
        assert excinfo.value.saved == "CloudQCScheduler"
        assert excinfo.value.current == "GreedyScheduler"

    def test_different_admission_policy_refused(self, stream_snapshot):
        with pytest.raises(CheckpointMismatchError) as excinfo:
            _make_sim(admission=QueueDepthThreshold(100)).resume_stream(
                stream_snapshot
            )
        assert excinfo.value.field == "admission_policy"
        assert excinfo.value.saved == "AdmitAll"
        assert excinfo.value.current == "QueueDepthThreshold"

    def test_different_cloud_refused(self, stream_snapshot):
        other = QuantumCloud(CloudTopology.line(4), computing_qubits_per_qpu=10)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            _make_sim(cloud=other).resume_stream(stream_snapshot)
        assert excinfo.value.field == "cloud"

    def test_telemetry_presence_must_match(self, stream_snapshot):
        # Original run had no sink; resuming with one changes the stream
        # the run would produce, so it is refused.
        with pytest.raises(CheckpointMismatchError) as excinfo:
            _make_sim().resume_stream(stream_snapshot, telemetry=Telemetry())
        assert excinfo.value.field == "telemetry"

    def test_matching_configuration_resumes(self, stream_snapshot):
        job_module.set_job_counter(0)
        results = _make_sim().resume_stream(stream_snapshot)
        assert results  # ran to completion

    def test_checkpointed_trace_needs_path_source(self, tmp_path):
        trace = generate_anchor_burst_trace(
            1, 2, num_qpus=3, anchor="ghz_n9", filler="ghz_n5"
        )
        with pytest.raises(CheckpointError, match="path"):
            _make_sim().run_stream(
                trace=trace.iter_records(),
                seed=1,
                checkpoint=CheckpointConfig(path=str(tmp_path / "s.json")),
            )
        # In-memory circuits are refused the same way, naming the remedy.
        with pytest.raises(CheckpointError, match="write_trace"):
            _make_sim().run_stream(
                trace.circuits,
                trace.arrival_times,
                seed=1,
                checkpoint=CheckpointConfig(path=str(tmp_path / "s.json")),
            )


class TestPathArguments:
    """A ``pathlib.Path`` snapshot path works like the same ``str``."""

    def test_path_snapshot_matches_str_snapshot(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace(
            trace_path,
            generate_anchor_burst_trace(
                2, 4, num_qpus=3, anchor="ghz_n9", filler="ghz_n5"
            ).iter_records(),
        )
        snap_path = tmp_path / "snap.json"
        snapshots = []
        for path in (str(snap_path), snap_path):
            job_module.set_job_counter(0)
            _make_sim().run_stream(
                trace=trace_path,
                seed=3,
                checkpoint=CheckpointConfig(path=path, every_jobs=2),
            )
            snapshots.append(snap_path.read_bytes())
        assert snapshots[1] == snapshots[0]
        saved = read_snapshot(str(snap_path))["state"]["checkpoint"]
        assert saved["path"] == str(snap_path)
        assert CheckpointConfig(path=snap_path).path == str(snap_path)


class TestTraceCursorClosed:
    """Every trace cursor a run opens is closed when the run returns or
    raises: the checkpointed replay's, the resume's, and a failed run's."""

    @pytest.fixture
    def opened(self, monkeypatch):
        cursors = []
        original = TraceCursor.__init__

        def tracking_init(cursor, reader):
            original(cursor, reader)
            cursors.append(cursor)

        monkeypatch.setattr(TraceCursor, "__init__", tracking_init)
        return cursors

    @staticmethod
    def _trace(tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace(
            trace_path,
            generate_anchor_burst_trace(
                2, 4, num_qpus=3, anchor="ghz_n9", filler="ghz_n5"
            ).iter_records(),
        )
        return trace_path

    def test_checkpointed_replay_and_resume(self, tmp_path, opened):
        snap_path = str(tmp_path / "snap.json")
        job_module.set_job_counter(0)
        _make_sim().run_stream(
            trace=self._trace(tmp_path),
            seed=3,
            checkpoint=CheckpointConfig(path=snap_path, every_jobs=3),
        )
        assert len(opened) == 1 and opened[0]._stream.closed
        job_module.set_job_counter(0)
        assert _make_sim().resume_stream(snap_path, checkpoint=None)
        assert len(opened) == 2 and opened[1]._stream.closed

    def test_run_that_raises(self, tmp_path, opened):
        simulator = _make_sim()
        simulator.max_events = 5
        with pytest.raises(ClusterSimulationError, match="exceeded 5 events"):
            simulator.run_stream(
                trace=self._trace(tmp_path),
                seed=3,
                checkpoint=CheckpointConfig(path=str(tmp_path / "s.json")),
            )
        assert len(opened) == 1 and opened[0]._stream.closed


# ----------------------------------------------------------------------
# Signal-triggered final snapshot
# ----------------------------------------------------------------------


class _RaiseSignalAfter(AdmitAll):
    """Admission policy that raises a signal on the Nth submission."""

    def __init__(self, count, signum):
        self.remaining = count
        self.signum = signum

    def admit(self, job, now, queue_depth):
        self.remaining -= 1
        if self.remaining == 0:
            signal.raise_signal(self.signum)
        return True


class TestSignalSnapshot:
    def _run_interrupted(self, tmp_path, signum):
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace(
            trace_path,
            generate_anchor_burst_trace(
                3, 4, num_qpus=3, anchor="ghz_n9", filler="ghz_n5"
            ).iter_records(),
        )
        snap_path = str(tmp_path / "snap.json")

        job_module.set_job_counter(0)
        baseline = _make_sim().run_stream(trace=trace_path, seed=3)

        job_module.set_job_counter(0)
        interrupted = _make_sim(admission=_RaiseSignalAfter(6, signum))
        with pytest.raises((KeyboardInterrupt, SystemExit)) as excinfo:
            interrupted.run_stream(
                trace=trace_path,
                seed=3,
                checkpoint=CheckpointConfig(path=snap_path),
            )
        return baseline, snap_path, excinfo

    def test_sigint_writes_final_snapshot_and_resumes(self, tmp_path):
        baseline, snap_path, excinfo = self._run_interrupted(
            tmp_path, signal.SIGINT
        )
        assert excinfo.type is KeyboardInterrupt
        assert os.path.exists(snap_path)
        job_module.set_job_counter(0)
        # Same policy class (fingerprint match), armed to never fire again.
        resumed = _make_sim(
            admission=_RaiseSignalAfter(10**9, signal.SIGINT)
        ).resume_stream(snap_path)
        assert [repr(sorted(r.__dict__.items())) for r in resumed] == [
            repr(sorted(r.__dict__.items())) for r in baseline
        ]

    def test_sigterm_exits_with_143(self, tmp_path):
        _, snap_path, excinfo = self._run_interrupted(tmp_path, signal.SIGTERM)
        assert excinfo.type is SystemExit
        assert excinfo.value.code == 128 + signal.SIGTERM
        assert os.path.exists(snap_path)

    def test_previous_handlers_restored(self, tmp_path):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        self._run_interrupted(tmp_path, signal.SIGINT)
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
