"""Fuzz the three readers of outside input: only their named errors come out.

``TraceReader``, ``read_snapshot`` and ``Telemetry.from_events`` read
files this library did not necessarily write.  Hypothesis feeds each of
them random bytes and mutations (byte flips, insertions, deletions,
truncations) of a valid seed file; a replay of an event stream also gets
valid event objects with one field dropped or replaced by a value of the
wrong type.  Every input must either be read or end in
:class:`TraceFormatError`, :class:`CheckpointError` or ``ValueError`` --
never another exception from deep inside the code.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import warnings
from typing import Callable, Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CheckpointConfig,
    CheckpointError,
    MultiTenantSimulator,
    Telemetry,
    TraceFormatError,
    TraceReader,
    generate_cluster_trace,
    read_snapshot,
)
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler

NAMED_ERRORS = (TraceFormatError, CheckpointError, ValueError)

#: One valid event of every type, in an order a run could emit them.
EVENTS = [
    {"event": "job_arrived", "t": 0.0, "job": "job-0", "circuit": "ghz_n4",
     "qubits": 4, "tenant": 7},
    {"event": "admitted", "t": 0.0, "job": "job-0", "depth": 1},
    {"event": "placed", "t": 0.0, "job": "job-0", "depth": 0, "qpus": [0, 1],
     "first": True},
    {"event": "preempted", "t": 1.0, "job": "job-0", "n": 1},
    {"event": "requeued", "t": 1.0, "job": "job-0", "depth": 1},
    {"event": "placed", "t": 2.0, "job": "job-0", "depth": 0, "qpus": [2],
     "first": False, "wait": 2.0},
    {"event": "migrated", "t": 2.5, "job": "job-0", "n": 1},
    {"event": "qpu_join", "t": 3.0, "qpu": 4},
    {"event": "qpu_drain", "t": 3.0, "qpu": 2, "migrated": 1, "requeued": 0},
    {"event": "qpu_fail", "t": 3.5, "qpu": 3, "interrupted": 0},
    {"event": "calibration_start", "t": 4.0, "qpu": 0, "epr": 0.1},
    {"event": "calibration_end", "t": 5.0, "qpu": 0},
    {"event": "completed", "t": 6.0, "job": "job-0", "jct": 6.0, "wait": 0.0,
     "qpus_used": 2, "n_preempt": 1, "n_migrate": 1, "wasted_time": 0.0,
     "wasted_ops": 0, "tenant": 7},
    {"event": "rejected", "t": 6.5, "job": "job-1", "tenant": "acme"},
    {"event": "expired", "t": 7.0, "job": "job-2", "depth": 0, "wait": 3.0},
    {"event": "stranded", "t": 8.0, "job": "job-3", "depth": 0,
     "wasted_time": 2.0, "wasted_ops": 1, "n_preempt": 1, "n_migrate": 0},
    {"event": "failed", "t": 9.0, "job": "job-4", "wait": 1.0,
     "wasted_time": 1.0, "wasted_ops": 0, "n_preempt": 0, "n_migrate": 0},
]
#: Values of the wrong type for some field, or out of its range.
BAD_VALUES = st.sampled_from(
    [None, "x", [1], {"k": 1}, float("nan"), float("inf"), -1, True, 1.5, 2**70,
     10**400]
)

#: Each reader, keyed by the seed file it reads.
READERS: Dict[str, Callable] = {
    "trace.jsonl": lambda path: list(TraceReader(path)),
    "snapshot.json": read_snapshot,
    "events.jsonl": Telemetry.from_events,
}


@functools.lru_cache(maxsize=None)
def seed_files() -> Dict[str, bytes]:
    """Valid input for each reader, written by the library itself."""
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: os.path.join(directory, name) for name in READERS}
        trace = generate_cluster_trace(
            12, num_tenants=3, base_rate=0.5, seed=1, names=["ghz_n4", "ghz_n6"]
        )
        trace.to_file(paths["trace.jsonl"])
        cloud = QuantumCloud(CloudTopology.line(3), computing_qubits_per_qpu=8)
        simulator = MultiTenantSimulator(cloud, RandomPlacement(), CloudQCScheduler())
        with Telemetry(events=paths["events.jsonl"]) as sink:
            simulator.run_stream(
                trace=paths["trace.jsonl"],
                seed=1,
                telemetry=sink,
                checkpoint=CheckpointConfig(paths["snapshot.json"], every_jobs=4),
            )
        files = {}
        for name, path in paths.items():
            with open(path, "rb") as handle:
                files[name] = handle.read()
        return files


@st.composite
def mutations(draw, seed: bytes) -> bytes:
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        at = draw(st.integers(0, len(data)))
        if op == "flip" and data:
            data[min(at, len(data) - 1)] = draw(st.integers(0, 255))
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 32))]
        else:
            del data[at:]
    return bytes(data)


def read_or_named_error(read: Callable, source) -> None:
    with warnings.catch_warnings():
        # A torn final event line is tolerated with a RuntimeWarning.
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            read(source)
        except NAMED_ERRORS:
            pass


def test_seed_files_are_read_without_error():
    with tempfile.TemporaryDirectory() as directory:
        for name, payload in seed_files().items():
            path = os.path.join(directory, name)
            with open(path, "wb") as handle:
                handle.write(payload)
            READERS[name](path)
    Telemetry.from_events([json.dumps(event) for event in EVENTS])


@pytest.mark.parametrize("name", sorted(READERS))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_random_or_mutated_bytes(name, data):
    payload = data.draw(
        st.one_of(mutations(seed_files()[name]), st.binary(max_size=200))
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, name)
        with open(path, "wb") as handle:
            handle.write(payload)
        read_or_named_error(READERS[name], path)


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(EVENTS) - 1), data=st.data())
def test_event_with_a_dropped_or_mistyped_field(index, data):
    event = dict(EVENTS[index])
    field = data.draw(st.sampled_from(sorted(set(event) - {"event"})))
    if data.draw(st.booleans()):
        del event[field]
    else:
        event[field] = data.draw(BAD_VALUES)
    lines = [json.dumps(valid) for valid in EVENTS[:index]] + [json.dumps(event)]
    read_or_named_error(Telemetry.from_events, lines)
