"""Malformed input ends in each reader's named error, never a deep traceback.

Each case feeds one reader bytes it must refuse: non-UTF-8 text, JSON nested
deeper than the parser recurses, a JSON value of the wrong shape, an integer
too large for a float (or too long to parse), or a trace record naming a
circuit the library cannot build.  ``TraceReader`` and ``run_stream`` must
raise :class:`TraceFormatError` with the record index and line,
``read_snapshot`` a :class:`CheckpointError` naming the snapshot, and
``iter_events`` / ``Telemetry.from_events`` a ``ValueError`` naming the event
line; ``Telemetry.from_events`` also names a missing or mistyped field it
reads.  A record naming a circuit wider than the cloud ends in the capacity
:class:`ClusterSimulationError` before the circuit is built.  An arrival
too large for a float in an in-memory arrival list, record list or
``trace_arrivals`` input ends in the "not finite" ``ValueError`` naming its
index.  The torn-final-line tolerance of ``iter_events`` is pinned in
``tests/test_telemetry_recovery.py``.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.circuits.library import get_circuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CheckpointError,
    ClusterSimulationError,
    MultiTenantSimulator,
    Telemetry,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    iter_events,
    read_snapshot,
    trace_arrivals,
)
from repro.multitenant import trace as trace_module
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler

#: JSON nested far deeper than ``json.loads`` recurses.
DEEP = "[" * 100_000
#: Latin-1 "é": not a valid UTF-8 byte sequence.
NOT_UTF8 = b"\xe9"
EVENT = json.dumps({"event": "job_arrived", "t": 0.0, "job": "job-0"})
#: An integer JSON parses but a float cannot hold.
HUGE = 10**400
#: Both event-stream readers, each given a path.
EVENT_READERS = pytest.mark.parametrize(
    "read",
    [lambda path: list(iter_events(path)), Telemetry.from_events],
    ids=["iter_events", "from_events"],
)


def write_trace(path, record_line: bytes) -> None:
    """A header, one valid record, then ``record_line`` as record #1."""
    head = b'{"schema": "repro-trace", "version": 2}\n'
    good = b'{"t": 0.0, "circuit": "ghz_n4"}\n'
    path.write_bytes(head + good + record_line + b"\n")


def simulator() -> MultiTenantSimulator:
    cloud = QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=10)
    return MultiTenantSimulator(cloud, RandomPlacement(), CloudQCScheduler())


class TestTraceReader:
    def test_non_utf8_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, b'{"t": 1.0, "circuit": "ghz_n4' + NOT_UTF8 + b'"}')
        with pytest.raises(TraceFormatError, match=r"record #1 \(line 3\).*UTF-8"):
            list(TraceReader(path))

    def test_arrival_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, json.dumps({"t": HUGE, "circuit": "ghz_n4"}).encode())
        with pytest.raises(
            TraceFormatError, match=r"record #1 \(line 3\): arrival time is not finite"
        ):
            list(TraceReader(path))

    def test_integer_too_long_to_parse(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, b'{"t": ' + b"1" * 5000 + b', "circuit": "ghz_n4"}')
        with pytest.raises(TraceFormatError, match=r"record #1 \(line 3\): invalid JSON"):
            list(TraceReader(path))

    def test_non_utf8_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"schema": "repro-trace' + NOT_UTF8 + b'"}\n')
        with pytest.raises(TraceFormatError, match=r"line 1: trace header.*UTF-8"):
            list(TraceReader(path))

    def test_deeply_nested_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, DEEP.encode())
        with pytest.raises(TraceFormatError, match=r"record #1 \(line 3\).*JSON"):
            list(TraceReader(path))

    def test_deeply_nested_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(DEEP.encode() + b"\n")
        with pytest.raises(TraceFormatError, match=r"line 1: trace header"):
            list(TraceReader(path))


class TestRunStream:
    def test_non_utf8_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, b'{"t": 1.0, "circuit": "ghz_n4' + NOT_UTF8 + b'"}')
        with pytest.raises(TraceFormatError, match=r"record #1 \(line 3\)"):
            simulator().run_stream(trace=path, seed=0)

    def test_unknown_circuit_in_path_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, b'{"t": 1.0, "circuit": "nope_n4"}')
        with pytest.raises(
            TraceFormatError, match=r"record #1 \(line 3\): unknown circuit 'nope_n4'"
        ):
            simulator().run_stream(trace=path, seed=0)

    def test_arrival_too_large_for_a_float_in_a_list(self):
        with pytest.raises(ValueError, match=r"arrival time #1 is not finite"):
            simulator().run_stream(
                [get_circuit("ghz_n4")] * 2, [0.0, HUGE], seed=0
            )

    def test_arrival_too_large_for_a_float_in_records(self):
        records = [TraceRecord(0.0, "ghz_n4"), TraceRecord(HUGE, "ghz_n4")]
        with pytest.raises(
            ValueError, match=r"trace record #1: arrival time is not finite"
        ):
            simulator().run_stream(trace=records, seed=0)

    def test_arrival_too_large_for_a_float_in_trace_arrivals(self):
        with pytest.raises(ValueError, match=r"timestamp #1 is not finite"):
            trace_arrivals([0.0, HUGE])

    def test_unknown_circuit_in_reader_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, b'{"t": 1.0, "circuit": "nope_n4"}')
        with pytest.raises(
            TraceFormatError, match=r"record #1: unknown circuit 'nope_n4'"
        ):
            simulator().run_stream(trace=TraceReader(path), seed=0)

    def test_oversized_circuit_is_refused_before_it_is_built(
        self, tmp_path, monkeypatch
    ):
        # The name gives the qubit count, so a record naming a circuit wider
        # than the cloud never reaches the library (qft_n20000 would ask it
        # for about 10^9 gates).
        requested = []

        def spy(name):
            requested.append(name)
            return trace_module.get_circuit(name)

        monkeypatch.setattr(
            trace_module, "cached_circuit", functools.lru_cache(maxsize=None)(spy)
        )
        path = tmp_path / "trace.jsonl"
        write_trace(path, b'{"t": 1.0, "circuit": "ghz_n31"}')
        with pytest.raises(
            ClusterSimulationError,
            match="circuit ghz_n31 needs 31 qubits but the cloud only has 30",
        ):
            simulator().run_stream(trace=path, seed=0)
        assert requested == ["ghz_n4"]


class TestReadSnapshot:
    def test_non_utf8_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(b'{"schema": "' + NOT_UTF8 + b'"}')
        with pytest.raises(CheckpointError, match="snap.json.*not UTF-8"):
            read_snapshot(str(path))

    def test_deeply_nested_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(DEEP)
        with pytest.raises(CheckpointError, match="snap.json.*not valid json"):
            read_snapshot(str(path))


class TestEventStream:
    def test_non_utf8_event_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(EVENT.encode() + b"\n" + NOT_UTF8 + b"\n" + EVENT.encode())
        with pytest.raises(ValueError, match="line 2 is not UTF-8"):
            list(iter_events(path))

    @EVENT_READERS
    def test_deeply_nested_event_line(self, tmp_path, read):
        path = tmp_path / "events.jsonl"
        path.write_text(f"{DEEP}\n{EVENT}\n")
        with pytest.raises(ValueError, match="corrupt telemetry event on line 1"):
            read(path)

    @EVENT_READERS
    def test_array_event_line(self, tmp_path, read):
        path = tmp_path / "events.jsonl"
        path.write_text(f"{EVENT}\n[1, 2]\n")
        with pytest.raises(ValueError, match="line 2 is not a JSON object"):
            read(path)

    def test_non_object_event_line_from_lines(self):
        with pytest.raises(ValueError, match="line 1 is not a JSON object"):
            list(iter_events(["42\n", EVENT]))

    @pytest.mark.parametrize(
        "line, message",
        [
            ({"event": "completed"}, "line 2: 'completed' event lacks field 't'"),
            (
                {"event": "completed", "t": 1.0, "job": "job-0"},
                "line 2: 'completed' event lacks field 'jct'",
            ),
            (
                {"event": "admitted", "t": "x", "job": "job-0"},
                "line 2: field 't' of the 'admitted' event must be a finite number",
            ),
            (
                {"event": "expired", "t": None, "job": "job-0"},
                "line 2: field 't' of the 'expired' event must be a finite number",
            ),
            ({"event": "qpu_join", "t": 1.0}, "line 2: 'qpu_join' event lacks field 'qpu'"),
            (
                {"event": "placed", "t": 1.0, "job": "job-0", "qpus": None},
                "line 2: field 'qpus' of the 'placed' event must be a list",
            ),
            (
                {"event": "rejected", "t": 1.0, "job": "job-0", "tenant": [7]},
                "line 2: field 'tenant' of the 'rejected' event must be a string",
            ),
            (
                {"event": "admitted", "t": HUGE, "job": "job-0"},
                "line 2: field 't' of the 'admitted' event must be a finite number",
            ),
            (
                {
                    "event": "completed",
                    "t": 1.0,
                    "job": "job-0",
                    "jct": HUGE,
                    "n_preempt": 0,
                    "n_migrate": 0,
                    "wasted_time": 0.0,
                    "wasted_ops": 0,
                },
                "line 2: field 'jct' of the 'completed' event must be a finite number",
            ),
        ],
        ids=[
            "completed-without-t",
            "completed-without-jct",
            "admitted-string-t",
            "expired-null-t",
            "qpu_join-without-qpu",
            "placed-null-qpus",
            "rejected-list-tenant",
            "admitted-huge-t",
            "completed-huge-jct",
        ],
    )
    def test_event_field_the_replay_reads(self, line, message):
        with pytest.raises(ValueError, match=message):
            Telemetry.from_events([EVENT, json.dumps(line)])
