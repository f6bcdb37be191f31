"""Crash-recovery behavior of the telemetry event stream: torn tails,
mid-file corruption, durability, and checkpoint restore of the sink."""

import json
import os

import pytest

import repro.cloud.job as job_module
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CheckpointConfig,
    CheckpointError,
    MultiTenantSimulator,
    Telemetry,
    generate_anchor_burst_trace,
    iter_events,
    write_trace,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler


def _event_lines(count=3):
    return [
        json.dumps({"event": "job_arrived", "t": float(i), "job": f"job-{i}"})
        for i in range(count)
    ]


class TestTornTail:
    def test_truncated_final_line_warns_and_skips(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        lines = _event_lines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
            handle.write('{"event": "job_arr')  # torn mid-write
        with pytest.warns(RuntimeWarning, match="truncated"):
            records = list(iter_events(path))
        assert len(records) == len(lines)

    def test_torn_tail_without_newline_prefix(self, tmp_path):
        # The tear can also hit the very first byte of the line.
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write(_event_lines(1)[0] + "\n{")
        with pytest.warns(RuntimeWarning):
            assert len(list(iter_events(path))) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        lines = _event_lines()
        lines[1] = lines[1][:10]  # corrupt a non-final line
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            list(iter_events(path))

    def test_clean_file_yields_everything_silently(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write("\n".join(_event_lines()) + "\n")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(iter_events(path))) == 3

    def test_from_events_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write("\n".join(_event_lines()) + "\n")
            handle.write('{"event"')
        with pytest.warns(RuntimeWarning):
            sink = Telemetry.from_events(path)
        assert sink.arrivals == 3


class TestDurability:
    def test_every_event_is_flushed_immediately(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = Telemetry(events=path)
        sink.job_arrived("job-0", 0.0, circuit="ghz_n5", num_qubits=5)
        # Without closing the sink, the line must already be on disk.
        with open(path) as handle:
            on_disk = handle.read()
        assert on_disk.endswith("\n")
        assert json.loads(on_disk)["event"] == "job_arrived"
        assert sink.events_bytes == len(on_disk.encode("utf-8"))
        sink.close()


class TestSinkRestore:
    def test_restore_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        source = Telemetry(events=path)
        source.job_arrived("job-0", 0.0, circuit="ghz_n5", num_qubits=5)
        state = source.checkpoint_state()
        durable = source.events_bytes
        # Simulate a crash tearing a line after the snapshot was taken.
        source._stream.write('{"event": "adm')
        source._stream.flush()
        source.close()
        assert os.path.getsize(path) > durable

        restored = Telemetry()
        restored.restore_state(state)
        assert os.path.getsize(path) == durable
        restored.job_admitted("job-0", 1.0)
        restored.close()
        records = list(iter_events(path))  # no warning: the tail is gone
        assert [r["event"] for r in records] == ["job_arrived", "admitted"]

    def test_restore_requires_fresh_sink(self, tmp_path):
        source = Telemetry(events=str(tmp_path / "events.jsonl"))
        state = source.checkpoint_state()
        source.close()
        used = Telemetry()
        used.job_arrived("job-0", 0.0)
        with pytest.raises(CheckpointError, match="fresh"):
            used.restore_state(state)

    def test_restore_rejects_epsilon_mismatch(self):
        state = Telemetry(epsilon=0.005).checkpoint_state()
        with pytest.raises(CheckpointError, match="epsilon"):
            Telemetry(epsilon=0.01).restore_state(state)

    def test_restore_rejects_shortened_events_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        source = Telemetry(events=path)
        source.job_arrived("job-0", 0.0)
        state = source.checkpoint_state()
        source.close()
        with open(path, "r+b") as handle:
            handle.truncate(3)
        with pytest.raises(CheckpointError, match="shorter"):
            Telemetry().restore_state(state)

    def test_caller_owned_stream_cannot_be_checkpointed(self, tmp_path):
        with open(tmp_path / "events.jsonl", "w") as stream:
            sink = Telemetry(events=stream)
            with pytest.raises(CheckpointError, match="caller-owned"):
                sink.checkpoint_state()

    def test_checkpointed_run_rejects_caller_owned_stream_upfront(
        self, tmp_path
    ):
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace(
            trace_path,
            generate_anchor_burst_trace(
                1, 2, num_qpus=3, anchor="ghz_n9", filler="ghz_n5"
            ).iter_records(),
        )
        cloud = QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=10)
        sim = MultiTenantSimulator(cloud, CloudQCPlacement(), CloudQCScheduler())
        job_module.set_job_counter(0)
        with open(tmp_path / "events.jsonl", "w") as stream:
            with pytest.raises(CheckpointError, match="path"):
                sim.run_stream(
                    trace=trace_path,
                    seed=1,
                    telemetry=Telemetry(events=stream),
                    checkpoint=CheckpointConfig(path=str(tmp_path / "s.json")),
                )
