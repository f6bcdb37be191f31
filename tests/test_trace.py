"""Tests for the on-disk trace schema (`repro.multitenant.trace`).

Hypothesis round-trip property tests (arbitrary valid traces written to a
file parse back identical), strict-validation error tests (every malformed
shape raises ``TraceFormatError`` naming the record), and laziness of the
streaming reader.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multitenant import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    cached_circuit,
    validate_records,
    write_trace,
)

# ----------------------------------------------------------------------
# Strategies: arbitrary *valid* traces
# ----------------------------------------------------------------------
finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
gaps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
circuit_names = st.from_regex(r"[a-z][a-z0-9]{0,8}_n[1-9][0-9]{0,2}", fullmatch=True)
tenant_values = st.one_of(
    st.none(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True),
)


@st.composite
def traces(draw, min_size=0, max_size=30):
    start = draw(finite)
    deltas = draw(st.lists(gaps, min_size=min_size, max_size=max_size))
    records = []
    t = start
    for delta in deltas:
        t = t + delta
        records.append(
            TraceRecord(
                arrival_time=t,
                circuit=draw(circuit_names),
                tenant=draw(tenant_values),
            )
        )
    return records


HEADER = json.dumps({"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION})


def trace_file(tmp_path, *record_lines, header=HEADER):
    """A trace file of ``header`` followed by ``record_lines``."""
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join([header, *record_lines]) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(records=traces())
    def test_serialize_parse_identity(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("round-trip") / "trace.jsonl"
        write_trace(path, records)
        assert list(TraceReader(path)) == records

    @settings(max_examples=30, deadline=None)
    @given(records=traces())
    def test_validate_records_passes_valid_traces(self, records):
        assert list(validate_records(records)) == records

    def test_path_round_trip_both_formats(self, tmp_path):
        # A path is read as jsonl whatever its extension, so the former
        # CSV file name holds the same encoding.
        records = [
            TraceRecord(0.25, "ghz_n8", tenant=3),
            TraceRecord(0.25, "qft_n16", tenant="acme"),
            TraceRecord(9.75, "ghz_n4"),
        ]
        for name in ("t.jsonl", "t.csv"):
            path = tmp_path / name
            assert write_trace(path, records) == 3
            assert list(TraceReader(path)) == records

    def test_reader_is_reiterable_for_paths(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [TraceRecord(float(i), "ghz_n4") for i in range(5)]
        write_trace(path, records)
        reader = TraceReader(path)
        assert list(reader) == records
        assert list(reader) == records  # second pass reopens the file

    def test_reader_is_reiterable_after_a_leading_blank_line(self, tmp_path):
        # Each pass must find the header again, not read it as record #0.
        path = tmp_path / "t.jsonl"
        records = [TraceRecord(float(i), "ghz_n4") for i in range(5)]
        write_trace(path, records)
        path.write_text("\n" + path.read_text())
        reader = TraceReader(path)
        assert list(reader) == records
        assert list(reader) == records

    def test_writer_streams_an_iterator_source(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = write_trace(
            path, (TraceRecord(float(i), "ghz_n4") for i in range(100))
        )
        assert count == 100
        assert len(list(TraceReader(path))) == 100

    def test_header_contents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [TraceRecord(0.0, "ghz_n4")])
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": TRACE_SCHEMA, "version": 2}

    def test_none_fields_are_omitted_from_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [TraceRecord(1.0, "ghz_n4")])
        record_line = json.loads(path.read_text().splitlines()[1])
        assert record_line == {"t": 1.0, "circuit": "ghz_n4"}


# ----------------------------------------------------------------------
# Strict validation: every malformed shape names the offending record
# ----------------------------------------------------------------------
class TestValidation:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0, "circuit": "ghz_n4"}\n')
        with pytest.raises(TraceFormatError, match="header"):
            list(TraceReader(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            list(TraceReader(path))

    def test_wrong_version(self, tmp_path):
        for version in (99, 1):
            header = json.dumps({"schema": TRACE_SCHEMA, "version": version})
            path = trace_file(
                tmp_path, '{"t": 0.0, "circuit": "ghz_n4"}', header=header
            )
            with pytest.raises(TraceFormatError, match=f"version {version} "):
                list(TraceReader(path))

    def test_unsorted_raises_with_record_index(self, tmp_path):
        path = trace_file(
            tmp_path,
            '{"t": 5.0, "circuit": "ghz_n4"}',
            '{"t": 6.0, "circuit": "ghz_n4"}',
            '{"t": 2.0, "circuit": "ghz_n4"}',
        )
        with pytest.raises(TraceFormatError, match=r"record #2 \(line 4\)"):
            list(TraceReader(path))

    def test_non_finite_arrival(self, tmp_path):
        path = trace_file(tmp_path, '{"t": NaN, "circuit": "ghz_n4"}')
        with pytest.raises(TraceFormatError, match="record #0.*not finite"):
            list(TraceReader(path))

    def test_boolean_arrival_rejected(self, tmp_path):
        path = trace_file(tmp_path, '{"t": true, "circuit": "ghz_n4"}')
        with pytest.raises(TraceFormatError, match="must be a number"):
            list(TraceReader(path))

    def test_missing_required_fields(self, tmp_path):
        path = trace_file(tmp_path, '{"circuit": "ghz_n4"}')
        with pytest.raises(TraceFormatError, match="missing required field 't'"):
            list(TraceReader(path))
        path = trace_file(tmp_path, '{"t": 0.0}')
        with pytest.raises(TraceFormatError, match="'circuit'"):
            list(TraceReader(path))

    def test_unknown_jsonl_field(self, tmp_path):
        for field in ("flavour", "priority"):
            line = json.dumps({"t": 0.0, "circuit": "ghz_n4", field: 1.0})
            path = trace_file(tmp_path, line)
            with pytest.raises(TraceFormatError, match=f"unknown field.*{field}"):
                list(TraceReader(path))

    def test_non_positive_deadline(self, tmp_path):
        # The schema has no deadline field; replay deadlines come from the
        # admission policy.
        path = trace_file(tmp_path, '{"t": 0.0, "circuit": "ghz_n4", "deadline": 0.0}')
        with pytest.raises(TraceFormatError, match="unknown field.*deadline"):
            list(TraceReader(path))

    def test_invalid_json_line(self, tmp_path):
        path = trace_file(tmp_path, "{not json")
        with pytest.raises(TraceFormatError, match="record #0.*invalid JSON"):
            list(TraceReader(path))

    def test_writer_rejects_invalid_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        unsorted = [TraceRecord(5.0, "ghz_n4"), TraceRecord(1.0, "ghz_n4")]
        with pytest.raises(TraceFormatError, match="record #1"):
            write_trace(path, unsorted)
        with pytest.raises(TraceFormatError, match="not finite"):
            write_trace(path, [TraceRecord(math.inf, "ghz_n4")])
        with pytest.raises(TraceFormatError, match="circuit"):
            write_trace(path, [TraceRecord(0.0, "")])

    @pytest.mark.parametrize(
        "record",
        [
            TraceRecord(0.0, "ghz\n_n4"),
            TraceRecord(0.0, "ghz_n4", tenant="a\nb"),
            TraceRecord(0.0, "ghz_n4", tenant="a\rb"),
        ],
        ids=["circuit-lf", "tenant-lf", "tenant-cr"],
    )
    def test_line_breaks_in_string_fields_rejected(self, tmp_path, record):
        # The cursor reads one record per physical line.
        with pytest.raises(TraceFormatError, match=r"record #0.*line break"):
            write_trace(tmp_path / "written.jsonl", [record])
        line = json.dumps(
            {"t": 0.0, "circuit": record.circuit, "tenant": record.tenant}
        )
        with pytest.raises(TraceFormatError, match=r"record #0 \(line 2\)"):
            list(TraceReader(trace_file(tmp_path, line)))

    def test_validate_records_names_the_index(self):
        records = [TraceRecord(0.0, "ghz_n4"), TraceRecord(1.0, "ghz_n4", tenant=0.5)]
        with pytest.raises(TraceFormatError, match="record #1.*tenant"):
            list(validate_records(records))

    @settings(max_examples=25, deadline=None)
    @given(records=traces(min_size=2))
    def test_any_swap_that_unsorts_is_rejected(self, tmp_path_factory, records):
        first, last = records[0], records[-1]
        if first.arrival_time == last.arrival_time:
            return  # swapping equal timestamps keeps the trace valid
        swapped = [last] + records[1:-1] + [first]
        path = tmp_path_factory.mktemp("swap") / "trace.jsonl"
        write_trace(path, records)
        header, *body = path.read_text().splitlines()
        swapped_body = [body[-1]] + body[1:-1] + [body[0]]
        path.write_text("\n".join([header, *swapped_body]) + "\n")
        with pytest.raises(TraceFormatError, match="not sorted"):
            list(TraceReader(path))
        with pytest.raises(TraceFormatError, match="not sorted"):
            list(validate_records(swapped))


# ----------------------------------------------------------------------
# One encoding, whatever the path
# ----------------------------------------------------------------------
class TestFormats:
    def test_format_inference(self, tmp_path):
        # Every path is written and read as jsonl; the extension is ignored.
        for name in ("t.csv", "TRACE.CSV", "t.parquet", "t"):
            path = tmp_path / name
            write_trace(path, [TraceRecord(0.5, "ghz_n4", tenant=1)])
            assert path.read_text().splitlines() == [
                HEADER,
                '{"t": 0.5, "circuit": "ghz_n4", "tenant": 1}',
            ]
            assert list(TraceReader(path)) == [TraceRecord(0.5, "ghz_n4", tenant=1)]

    def test_unknown_format_rejected(self, tmp_path):
        # A file in another encoding (here a CSV trace) fails on its header.
        path = tmp_path / "trace.csv"
        path.write_text("# repro-trace v1\narrival_time,circuit\n0.0,ghz_n4\n")
        with pytest.raises(TraceFormatError, match="line 1: trace header"):
            list(TraceReader(path))


# ----------------------------------------------------------------------
# Laziness
# ----------------------------------------------------------------------
class TestLaziness:
    def test_reader_consumes_lines_on_demand(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, (TraceRecord(float(i), "ghz_n4") for i in range(10_000)))
        cursor = TraceReader(path).cursor()
        first = list(itertools.islice(cursor, 3))
        assert [record.arrival_time for record in first] == [0.0, 1.0, 2.0]
        # The header and 3 record lines, not the whole 10k-line file.
        with open(path, "rb") as handle:
            head = [next(handle) for _ in range(4)]
        assert cursor.tell() == sum(map(len, head))
        cursor.close()

    def test_cached_circuit_is_shared(self):
        assert cached_circuit("ghz_n8") is cached_circuit("ghz_n8")
        record = TraceRecord(0.0, "ghz_n8")
        assert record.resolve_circuit() is cached_circuit("ghz_n8")

    def test_resolve_unknown_circuit_raises(self):
        with pytest.raises(KeyError):
            TraceRecord(0.0, "nosuch_n5").resolve_circuit()


# ----------------------------------------------------------------------
# No rebase in the reader
# ----------------------------------------------------------------------
class TestRebaseIdentity:
    def test_default_is_passthrough(self, tmp_path):
        # Raw timestamps come back verbatim; trace_arrivals is the rebase.
        path = tmp_path / "t.jsonl"
        write_trace(path, [TraceRecord(100.5, "ghz_n4"), TraceRecord(200.25, "ghz_n4")])
        assert [r.arrival_time for r in TraceReader(path)] == [100.5, 200.25]
