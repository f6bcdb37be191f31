"""Tests for the on-disk trace schema (`repro.multitenant.trace`).

Hypothesis round-trip property tests (arbitrary valid traces serialize to
jsonl/CSV and parse back identical), strict-validation error tests (every
malformed shape raises ``TraceFormatError`` naming the record), laziness of
the streaming reader, and the pinned identity between
``arrivals.trace_arrivals`` and ``TraceReader`` rebasing.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os

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
    read_trace,
    trace_arrivals,
    trace_format_for_path,
    trace_to_string,
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
# Lowercase-leading strings can never be mistaken for the CSV int coercion.
tenant_values = st.one_of(
    st.none(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True),
)
priorities = st.one_of(st.none(), finite)
deadlines = st.one_of(
    st.none(),
    st.floats(
        min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
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
                priority=draw(priorities),
                deadline=draw(deadlines),
            )
        )
    return records


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(records=traces(), fmt=st.sampled_from(["jsonl", "csv"]))
    def test_serialize_parse_identity(self, records, fmt):
        document = trace_to_string(records, format=fmt)
        parsed = list(TraceReader(io.StringIO(document), format=fmt))
        assert parsed == records

    @settings(max_examples=30, deadline=None)
    @given(records=traces(min_size=1))
    def test_jsonl_and_csv_agree(self, records):
        via_jsonl = list(
            TraceReader(
                io.StringIO(trace_to_string(records, format="jsonl")),
                format="jsonl",
            )
        )
        via_csv = list(
            TraceReader(
                io.StringIO(trace_to_string(records, format="csv")),
                format="csv",
            )
        )
        assert via_jsonl == via_csv

    @settings(max_examples=30, deadline=None)
    @given(records=traces())
    def test_validate_records_passes_valid_traces(self, records):
        assert list(validate_records(records)) == records

    def test_path_round_trip_both_formats(self, tmp_path):
        records = [
            TraceRecord(0.25, "ghz_n8", tenant=3, priority=1.5),
            TraceRecord(0.25, "qft_n16", tenant="acme", deadline=300.0),
            TraceRecord(9.75, "ghz_n4"),
        ]
        for name in ("t.jsonl", "t.csv"):
            path = tmp_path / name
            assert write_trace(path, records) == 3
            assert list(read_trace(path)) == records

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
        path.write_text("\n" + trace_to_string(records, format="jsonl"))
        reader = TraceReader(path)
        assert list(reader) == records
        assert list(reader) == records

    def test_writer_streams_an_iterator_source(self, tmp_path):
        path = tmp_path / "t.csv"
        count = write_trace(
            path, (TraceRecord(float(i), "ghz_n4") for i in range(100))
        )
        assert count == 100
        assert len(list(read_trace(path))) == 100

    def test_header_contents(self):
        document = trace_to_string([TraceRecord(0.0, "ghz_n4")], format="jsonl")
        header = json.loads(document.splitlines()[0])
        assert header == {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION}
        csv_document = trace_to_string([TraceRecord(0.0, "ghz_n4")], format="csv")
        assert csv_document.splitlines()[0] == "# repro-trace v1"

    def test_none_fields_are_omitted_from_jsonl(self):
        document = trace_to_string([TraceRecord(1.0, "ghz_n4")], format="jsonl")
        record_line = json.loads(document.splitlines()[1])
        assert record_line == {"t": 1.0, "circuit": "ghz_n4"}


# ----------------------------------------------------------------------
# Strict validation: every malformed shape names the offending record
# ----------------------------------------------------------------------
def jsonl_doc(*record_lines, header=None):
    if header is None:
        header = json.dumps({"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION})
    return "\n".join([header, *record_lines]) + "\n"


class TestValidation:
    def test_missing_header(self):
        stream = io.StringIO('{"t": 0.0, "circuit": "ghz_n4"}\n')
        with pytest.raises(TraceFormatError, match="header"):
            list(TraceReader(stream, format="jsonl"))

    def test_empty_file(self):
        with pytest.raises(TraceFormatError, match="empty"):
            list(TraceReader(io.StringIO(""), format="jsonl"))
        with pytest.raises(TraceFormatError, match="empty"):
            list(TraceReader(io.StringIO(""), format="csv"))

    def test_wrong_version(self):
        doc = jsonl_doc(header=json.dumps({"schema": TRACE_SCHEMA, "version": 99}))
        with pytest.raises(TraceFormatError, match="version 99"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))
        csv_doc = "# repro-trace v99\narrival_time,circuit\n0.0,ghz_n4\n"
        with pytest.raises(TraceFormatError, match="repro-trace"):
            list(TraceReader(io.StringIO(csv_doc), format="csv"))

    def test_unsorted_raises_with_record_index(self):
        doc = jsonl_doc(
            '{"t": 5.0, "circuit": "ghz_n4"}',
            '{"t": 6.0, "circuit": "ghz_n4"}',
            '{"t": 2.0, "circuit": "ghz_n4"}',
        )
        with pytest.raises(TraceFormatError, match=r"record #2 \(line 4\)"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))

    def test_non_finite_arrival(self):
        doc = jsonl_doc('{"t": NaN, "circuit": "ghz_n4"}')
        with pytest.raises(TraceFormatError, match="record #0.*not finite"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))

    def test_boolean_arrival_rejected(self):
        doc = jsonl_doc('{"t": true, "circuit": "ghz_n4"}')
        with pytest.raises(TraceFormatError, match="must be a number"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))

    def test_missing_required_fields(self):
        with pytest.raises(TraceFormatError, match="missing required field 't'"):
            list(
                TraceReader(
                    io.StringIO(jsonl_doc('{"circuit": "ghz_n4"}')), format="jsonl"
                )
            )
        with pytest.raises(TraceFormatError, match="'circuit'"):
            list(TraceReader(io.StringIO(jsonl_doc('{"t": 0.0}')), format="jsonl"))

    def test_unknown_jsonl_field(self):
        doc = jsonl_doc('{"t": 0.0, "circuit": "ghz_n4", "flavour": "blue"}')
        with pytest.raises(TraceFormatError, match="unknown field.*flavour"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))

    def test_invalid_json_line(self):
        doc = jsonl_doc("{not json")
        with pytest.raises(TraceFormatError, match="record #0.*invalid JSON"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))

    def test_non_positive_deadline(self):
        doc = jsonl_doc('{"t": 0.0, "circuit": "ghz_n4", "deadline": 0.0}')
        with pytest.raises(TraceFormatError, match="deadline must be a positive"):
            list(TraceReader(io.StringIO(doc), format="jsonl"))

    def test_csv_missing_required_column(self):
        doc = "# repro-trace v1\ncircuit,tenant\nghz_n4,1\n"
        with pytest.raises(TraceFormatError, match="missing required column"):
            list(TraceReader(io.StringIO(doc), format="csv"))

    def test_csv_unknown_column(self):
        doc = "# repro-trace v1\narrival_time,circuit,flavour\n0.0,ghz_n4,x\n"
        with pytest.raises(TraceFormatError, match="unknown column.*flavour"):
            list(TraceReader(io.StringIO(doc), format="csv"))

    def test_csv_non_numeric_cell(self):
        doc = "# repro-trace v1\narrival_time,circuit\nsoon,ghz_n4\n"
        with pytest.raises(TraceFormatError, match="record #0.*not a number"):
            list(TraceReader(io.StringIO(doc), format="csv"))

    def test_csv_wrong_cell_count(self):
        doc = "# repro-trace v1\narrival_time,circuit,tenant\n0.0,ghz_n4\n"
        with pytest.raises(TraceFormatError, match="expected 3 columns, got 2"):
            list(TraceReader(io.StringIO(doc), format="csv"))

    def test_csv_missing_column_row(self):
        doc = "# repro-trace v1\n"
        with pytest.raises(TraceFormatError, match="no column row"):
            list(TraceReader(io.StringIO(doc), format="csv"))

    def test_writer_rejects_invalid_records(self):
        unsorted = [TraceRecord(5.0, "ghz_n4"), TraceRecord(1.0, "ghz_n4")]
        with pytest.raises(TraceFormatError, match="record #1"):
            trace_to_string(unsorted, format="jsonl")
        with pytest.raises(TraceFormatError, match="not finite"):
            trace_to_string([TraceRecord(math.inf, "ghz_n4")], format="csv")
        with pytest.raises(TraceFormatError, match="circuit"):
            trace_to_string([TraceRecord(0.0, "")], format="jsonl")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        "record",
        [
            TraceRecord(0.0, "ghz\n_n4"),
            TraceRecord(0.0, "ghz_n4", tenant="a\nb"),
            TraceRecord(0.0, "ghz_n4", tenant="a\rb"),
        ],
        ids=["circuit-lf", "tenant-lf", "tenant-cr"],
    )
    def test_line_breaks_in_string_fields_rejected(self, fmt, record):
        # A CSV row with a line break spans two physical lines, which the
        # replay cursor cannot read back, so the schema forbids it.
        with pytest.raises(TraceFormatError, match=r"record #0.*line break"):
            trace_to_string([record], format=fmt)
        line = json.dumps(
            {"t": 0.0, "circuit": record.circuit, "tenant": record.tenant}
        )
        with pytest.raises(TraceFormatError, match=r"record #0 \(line 2\)"):
            list(TraceReader(io.StringIO(jsonl_doc(line)), format="jsonl"))

    def test_validate_records_names_the_index(self):
        records = [TraceRecord(0.0, "ghz_n4"), TraceRecord(1.0, "ghz_n4", tenant=0.5)]
        with pytest.raises(TraceFormatError, match="record #1.*tenant"):
            list(validate_records(records))

    @settings(max_examples=25, deadline=None)
    @given(records=traces(min_size=2), fmt=st.sampled_from(["jsonl", "csv"]))
    def test_any_swap_that_unsorts_is_rejected(self, records, fmt):
        first, last = records[0], records[-1]
        if first.arrival_time == last.arrival_time:
            return  # swapping equal timestamps keeps the trace valid
        swapped = [last] + records[1:-1] + [first]
        document_lines = trace_to_string(records, format=fmt).splitlines()
        header, body = document_lines[: 2 if fmt == "csv" else 1], document_lines[2 if fmt == "csv" else 1 :]
        swapped_body = [body[-1]] + body[1:-1] + [body[0]]
        document = "\n".join(header + swapped_body) + "\n"
        with pytest.raises(TraceFormatError, match="not sorted"):
            list(TraceReader(io.StringIO(document), format=fmt))
        with pytest.raises(TraceFormatError, match="not sorted"):
            list(validate_records(swapped))


# ----------------------------------------------------------------------
# Format handling
# ----------------------------------------------------------------------
class TestFormats:
    def test_format_inference(self):
        assert trace_format_for_path("a/b/trace.jsonl") == "jsonl"
        assert trace_format_for_path("trace.ndjson") == "jsonl"
        assert trace_format_for_path("TRACE.CSV") == "csv"
        with pytest.raises(TraceFormatError, match="cannot infer"):
            trace_format_for_path("trace.parquet")

    def test_file_object_requires_format(self):
        with pytest.raises(TraceFormatError, match="format="):
            TraceReader(io.StringIO(""))
        with pytest.raises(TraceFormatError, match="format="):
            write_trace(io.StringIO(), [])

    def test_unknown_format_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            TraceReader(io.StringIO(""), format="xml")


# ----------------------------------------------------------------------
# Laziness
# ----------------------------------------------------------------------
class TestLaziness:
    def test_reader_consumes_lines_on_demand(self):
        document = trace_to_string(
            [TraceRecord(float(i), "ghz_n4") for i in range(10_000)],
            format="jsonl",
        )
        consumed = 0

        def lines():
            nonlocal consumed
            for line in io.StringIO(document):
                consumed += 1
                yield line

        reader = TraceReader(lines(), format="jsonl")
        first = list(itertools.islice(iter(reader), 3))
        assert [record.arrival_time for record in first] == [0.0, 1.0, 2.0]
        # Header + a handful of records, not the whole 10k-line document.
        assert consumed <= 5

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_reader_accepts_a_line_generator(self, fmt):
        records = [TraceRecord(float(i), "ghz_n4", tenant=i) for i in range(3)]
        document = trace_to_string(records, format=fmt)
        lines = (line for line in io.StringIO(document))
        assert list(TraceReader(lines, format=fmt)) == records

    def test_cached_circuit_is_shared(self):
        assert cached_circuit("ghz_n8") is cached_circuit("ghz_n8")
        record = TraceRecord(0.0, "ghz_n8")
        assert record.resolve_circuit() is cached_circuit("ghz_n8")

    def test_resolve_unknown_circuit_raises(self):
        with pytest.raises(KeyError):
            TraceRecord(0.0, "nosuch_n5").resolve_circuit()


# ----------------------------------------------------------------------
# Rebase identity with arrivals.trace_arrivals (satellite requirement)
# ----------------------------------------------------------------------
class TestRebaseIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        deltas=st.lists(gaps, min_size=1, max_size=20),
        first=finite,
        start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        time_scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    )
    def test_reader_rebases_exactly_like_trace_arrivals(
        self, deltas, first, start, time_scale
    ):
        timestamps = []
        t = first
        for delta in deltas:
            t = t + delta
            timestamps.append(t)
        expected = trace_arrivals(timestamps, start=start, time_scale=time_scale)
        document = trace_to_string(
            [TraceRecord(ts, "ghz_n4") for ts in timestamps], format="jsonl"
        )
        rebased = TraceReader(
            io.StringIO(document), format="jsonl", start=start, time_scale=time_scale
        )
        got = [record.arrival_time for record in rebased]
        assert got == expected  # bit-identical, not approx

    def test_default_is_passthrough(self):
        records = [TraceRecord(100.5, "ghz_n4"), TraceRecord(200.25, "ghz_n4")]
        document = trace_to_string(records, format="csv")
        parsed = list(TraceReader(io.StringIO(document), format="csv"))
        assert [r.arrival_time for r in parsed] == [100.5, 200.25]

    def test_rebase_preserves_other_fields(self):
        records = [TraceRecord(50.0, "ghz_n8", tenant="t", priority=2.0, deadline=9.0)]
        document = trace_to_string(records, format="jsonl")
        (rebased,) = TraceReader(
            io.StringIO(document), format="jsonl", start=0.0, time_scale=2.0
        )
        assert rebased == TraceRecord(0.0, "ghz_n8", tenant="t", priority=2.0, deadline=9.0)

    def test_invalid_rebase_parameters(self):
        with pytest.raises(ValueError, match="time_scale"):
            TraceReader(io.StringIO(""), format="jsonl", time_scale=0.0)
        with pytest.raises(ValueError, match="start"):
            TraceReader(io.StringIO(""), format="jsonl", start=math.nan)
