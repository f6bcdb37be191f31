"""Property tests for the byte-addressable trace cursor (seek/tell)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multitenant import (
    TraceCursor,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    write_trace,
)

CIRCUITS = ["ghz_n5", "ghz_n9", "qft_n10"]
TENANTS = [None, 0, 1, "alice"]


@st.composite
def traces(draw, max_records=25):
    count = draw(st.integers(min_value=1, max_value=max_records))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    records, arrival = [], 0.0
    for gap in gaps:
        arrival += gap
        records.append(
            TraceRecord(
                arrival_time=arrival,
                circuit=draw(st.sampled_from(CIRCUITS)),
                tenant=draw(st.sampled_from(TENANTS)),
                priority=draw(st.sampled_from([None, 1.0, 2.5])),
                deadline=draw(st.sampled_from([None, arrival + 100.0])),
            )
        )
    return records


def write_tmp(tmp_path, records, fmt):
    path = str(tmp_path / f"trace.{'jsonl' if fmt == 'jsonl' else 'csv'}")
    write_trace(path, records, format=fmt)
    return path


class TestCursorEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=traces(), data=st.data())
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_seek_then_read_equals_read_then_skip(
        self, tmp_path_factory, fmt, records, data
    ):
        """Resuming at tell() yields exactly the not-yet-read suffix."""
        tmp_path = tmp_path_factory.mktemp("cursor")
        path = write_tmp(tmp_path, records, fmt)
        reader = TraceReader(path)
        skip = data.draw(
            st.integers(min_value=0, max_value=len(records)), label="skip"
        )

        first = reader.cursor()
        consumed = [next(first) for _ in range(skip)]
        position = dict(
            offset=first.tell(),
            index=first.index,
            line_no=first.line_no,
            previous=first.previous_arrival,
            first=first.first_arrival,
        )
        expected_suffix = list(first)
        first.close()

        fresh = TraceReader(path).cursor()
        fresh.seek(
            position["offset"],
            index=position["index"],
            line_no=position["line_no"],
            previous=position["previous"],
            first=position["first"],
        )
        assert list(fresh) == expected_suffix
        fresh.close()
        assert consumed + expected_suffix == list(TraceReader(path))

    @settings(max_examples=20, deadline=None)
    @given(records=traces(), data=st.data())
    def test_seek_recovers_rebase_origin(self, tmp_path_factory, records, data):
        """A seek without first= re-probes the rebase origin from the head."""
        tmp_path = tmp_path_factory.mktemp("rebase")
        path = write_tmp(tmp_path, records, "jsonl")
        reader = TraceReader(path, start=0.0, time_scale=0.5)
        skip = data.draw(
            st.integers(min_value=1, max_value=len(records)), label="skip"
        )
        full = reader.cursor()
        for _ in range(skip):
            next(full)
        offset = full.tell()
        index = full.index
        previous = full.previous_arrival
        expected = list(full)
        full.close()

        resumed = TraceReader(path, start=0.0, time_scale=0.5).cursor()
        resumed.seek(offset, index=index, previous=previous)  # first omitted
        assert list(resumed) == expected
        resumed.close()


class TestCursorValidation:
    def _path(self, tmp_path, fmt="jsonl"):
        records = [
            TraceRecord(arrival_time=float(i), circuit="ghz_n5")
            for i in range(4)
        ]
        return write_tmp(tmp_path, records, fmt)

    def test_cursor_yields_same_records_as_iteration(self, tmp_path):
        path = self._path(tmp_path)
        assert list(TraceReader(path).cursor()) == list(TraceReader(path))

    def test_requires_path_source(self, tmp_path):
        buffer = io.StringIO()
        write_trace(buffer, [TraceRecord(0.0, "ghz_n5")], format="jsonl")
        buffer.seek(0)
        with pytest.raises(TraceFormatError, match="path"):
            TraceReader(buffer, format="jsonl").cursor()

    def test_text_source_cursor_reads_without_tell_or_seek(self):
        buffer = io.StringIO()
        write_trace(buffer, [TraceRecord(0.0, "ghz_n5")], format="jsonl")
        buffer.seek(0)
        cursor = TraceCursor(TraceReader(buffer, format="jsonl"))
        with pytest.raises(TraceFormatError, match="path"):
            cursor.tell()
        with pytest.raises(TraceFormatError, match="path"):
            cursor.seek(0)
        assert [record.arrival_time for record in cursor] == [0.0]

    def test_negative_seek_rejected(self, tmp_path):
        cursor = TraceReader(self._path(tmp_path)).cursor()
        with pytest.raises(ValueError):
            cursor.seek(-1)
        cursor.close()

    def test_seek_into_header_rejected(self, tmp_path):
        path = self._path(tmp_path)
        cursor = TraceReader(path).cursor()
        start = cursor.tell()  # first record boundary
        with pytest.raises(TraceFormatError, match="header"):
            cursor.seek(start - 1)
        cursor.close()

    def test_csv_prologue_spans_two_lines(self, tmp_path):
        path = self._path(tmp_path, fmt="csv")
        cursor = TraceReader(path).cursor()
        boundary = cursor.tell()
        with open(path, "rb") as handle:
            head = handle.read(boundary).decode("utf-8")
        assert head.count("\n") == 2  # header comment + column row
        assert next(cursor).arrival_time == 0.0
        cursor.close()

    def test_tell_is_exact_record_boundary(self, tmp_path):
        path = self._path(tmp_path)
        cursor = TraceReader(path).cursor()
        next(cursor)
        offset = cursor.tell()
        with open(path, "rb") as handle:
            handle.seek(offset)
            rest = handle.read().decode("utf-8")
        assert rest.startswith('{"t": 1.0')
        cursor.close()

    def test_sortedness_checked_across_seam(self, tmp_path):
        path = self._path(tmp_path)
        cursor = TraceReader(path).cursor()
        next(cursor)
        offset = cursor.tell()
        cursor.close()
        resumed = TraceReader(path).cursor()
        # Lie about the previous arrival: the next record (t=1.0) must
        # now violate the sortedness invariant over the seam.
        resumed.seek(offset, index=1, previous=99.0)
        with pytest.raises(TraceFormatError):
            next(resumed)
        resumed.close()
