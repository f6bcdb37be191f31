"""Byte identity of the telemetry lines ``Telemetry._emit`` writes as text.

``Telemetry._emit`` writes each line from the event's keys and per-value
encoders.  ``RefTelemetry`` below is the writer it replaced: its ``_emit``
built a dict and wrote ``json.dumps(record) + "\\n"``, and is a copy of
that version (comments trimmed); the hooks are ``Telemetry``'s own.

Hypothesis drives all 12 hooks, and every terminal outcome through
``record_result``, on both sinks with the same random values: finite and
non-finite floats, ints and bools, ``None`` in optional fields, strings with
quotes, control characters and non-ASCII characters, int, str and other
tenants, and numpy scalars.  Every call must write the same line on both
sides or raise the same error on both, and ``events_bytes`` must equal the
bytes written, for a path stream and for a caller-owned text stream.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
from types import SimpleNamespace
from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multitenant import JobOutcome, Telemetry


# ----------------------------------------------------------------------
# Reference: the json.dumps writer (kept verbatim, comments trimmed)
# ----------------------------------------------------------------------
class RefTelemetry(Telemetry):
    def _emit(
        self, event: str, time: float, job_id: Optional[str] = None, **fields
    ) -> None:
        if self._stream is None:
            return
        record = {"event": event, "t": time}
        if job_id is not None:
            record["job"] = job_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = json.dumps(record) + "\n"
        self._stream.write(line)
        self._stream.flush()
        self.events_bytes += len(line)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
# Quotes, backslashes, control characters, non-ASCII and a lone surrogate.
_AWKWARD = '"\\/\n\r\t\x00\x1f\x7fé€ \U0001f600\ud800'
texts = st.text(max_size=8) | st.text(alphabet=_AWKWARD, max_size=6)
numpy_scalars = st.one_of(
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
numbers = st.one_of(floats, st.integers(), st.booleans())
times = st.one_of(floats, st.integers(-10, 10**6))
counts = st.one_of(st.integers(0, 10**12), st.none(), numpy_scalars)
values = st.one_of(numbers, st.none(), texts, numpy_scalars)
tenants = st.one_of(
    st.none(),
    st.integers(),
    texts,
    floats.filter(lambda value: not math.isnan(value)),
    st.booleans(),
    st.tuples(st.integers(0, 9), texts),
    st.integers(0, 9).map(np.int64),
)
job_ids = st.one_of(texts, st.just("job-17"), st.integers(0, 99), st.none())
qpu_ids = st.one_of(st.integers(0, 20), st.integers(0, 20).map(np.int64), values)


def _arguments(**strategies):
    return st.fixed_dictionaries(strategies)


_HOOK_CALLS = {
    "job_arrived": _arguments(
        job_id=job_ids, time=times, circuit=st.none() | texts,
        num_qubits=counts, tenant=tenants,
    ),
    "job_admitted": _arguments(job_id=job_ids, time=times),
    "job_placed": _arguments(
        job_id=job_ids, time=times,
        qpus=st.lists(st.integers(0, 20), max_size=4)
        | st.lists(st.integers(0, 20).map(np.int64), max_size=2),
        first=st.booleans() | st.none() | numbers, wait=st.none() | floats,
    ),
    "job_preempted": _arguments(job_id=job_ids, time=times, count=counts),
    "job_requeued": _arguments(job_id=job_ids, time=times),
    "job_migrated": _arguments(job_id=job_ids, time=times, count=counts),
    "qpu_joined": _arguments(qpu_id=qpu_ids, time=times),
    "qpu_failed": _arguments(
        qpu_id=qpu_ids, time=times, interrupted=st.integers(0, 9)
    ),
    "qpu_drained": _arguments(
        qpu_id=qpu_ids, time=times,
        migrated=st.integers(0, 9), requeued=st.integers(0, 9),
    ),
    "calibration_started": _arguments(
        qpu_id=qpu_ids, time=times,
        epr_success_probability=st.none() | floats | numpy_scalars,
    ),
    "calibration_ended": _arguments(qpu_id=qpu_ids, time=times),
}


@st.composite
def results(draw):
    """A result of any terminal outcome, as ``record_result`` reads it."""
    return {
        "result": SimpleNamespace(
            outcome=draw(st.sampled_from(list(JobOutcome))).value,
            job_id=draw(job_ids),
            job_completion_time=draw(floats | st.integers(0, 100)),
            queueing_delay=draw(floats),
            dropped_time=draw(st.none() | times),
            completion_time=draw(times | st.none()),
            num_qpus_used=draw(counts),
            num_preemptions=draw(st.integers(0, 5) | numpy_scalars),
            num_migrations=draw(st.integers(0, 5)),
            wasted_time=draw(floats | st.integers(0, 9)),
            wasted_ops=draw(st.integers(0, 10**6)),
        ),
        "tenant": draw(tenants),
        "time": draw(st.none() | times),
    }


calls = st.one_of(
    *(st.tuples(st.just(hook), arguments) for hook, arguments in _HOOK_CALLS.items()),
    st.tuples(st.just("record_result"), results()),
)


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
def _call(sink: Telemetry, hook: str, arguments: dict):
    """``None``, or the type of the error the call raised."""
    try:
        getattr(sink, hook)(**arguments)
    except Exception as exc:  # the same error must come out on both sides
        return type(exc)
    return None


def _replay(new: Telemetry, ref: Telemetry, sequence, written) -> None:
    """Feed ``sequence`` to both sinks, comparing after every call."""
    for hook, arguments in sequence:
        assert _call(new, hook, arguments) == _call(ref, hook, arguments), hook
        new_text, ref_text = written()
        assert new_text == ref_text, hook
        assert new.events_bytes == ref.events_bytes == len(new_text.encode())


@settings(max_examples=300, deadline=None)
@given(sequence=st.lists(calls, max_size=25))
def test_caller_owned_stream_lines_match_json_dumps(sequence):
    new_stream, ref_stream = io.StringIO(), io.StringIO()
    new, ref = Telemetry(events=new_stream), RefTelemetry(events=ref_stream)
    _replay(
        new, ref, sequence, lambda: (new_stream.getvalue(), ref_stream.getvalue())
    )


@settings(max_examples=150, deadline=None)
@given(sequence=st.lists(calls, max_size=25))
def test_path_stream_lines_match_json_dumps(sequence):
    with tempfile.TemporaryDirectory() as root:
        new_path = os.path.join(root, "new.jsonl")
        ref_path = os.path.join(root, "ref.jsonl")

        def written():
            with open(new_path, "rb") as a, open(ref_path, "rb") as b:
                return a.read().decode("ascii"), b.read().decode("ascii")

        with Telemetry(events=new_path) as new, RefTelemetry(events=ref_path) as ref:
            _replay(new, ref, sequence, written)
        assert os.path.getsize(new_path) == new.events_bytes


def test_reference_writes_what_the_simulator_passes():
    """A plain admitted/placed/completed line, so the property above is not
    vacuous: both sinks wrote it, and the reference's bytes are pinned."""
    stream = io.StringIO()
    sink = Telemetry(events=stream)
    sink.job_admitted("job-3", 1.5)
    sink.job_placed("job-3", 2.0, qpus={4: 2, 1: 1}.keys(), first=True, wait=0.5)
    assert stream.getvalue() == (
        '{"event": "admitted", "t": 1.5, "job": "job-3", "depth": 1}\n'
        '{"event": "placed", "t": 2.0, "job": "job-3", "depth": 0, '
        '"qpus": [1, 4], "first": true, "wait": 0.5}\n'
    )
