"""Property tests for the byte-addressable trace cursor (seek/tell)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multitenant import (
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
            )
        )
    return records


def write_tmp(tmp_path, records):
    path = str(tmp_path / "trace.jsonl")
    write_trace(path, records)
    return path


class TestCursorEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=traces(), data=st.data())
    def test_seek_then_read_equals_read_then_skip(
        self, tmp_path_factory, records, data
    ):
        """Resuming at tell() yields exactly the not-yet-read suffix."""
        tmp_path = tmp_path_factory.mktemp("cursor")
        path = write_tmp(tmp_path, records)
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
        )
        expected_suffix = list(first)
        first.close()

        fresh = TraceReader(path).cursor()
        fresh.seek(
            position["offset"],
            index=position["index"],
            line_no=position["line_no"],
            previous=position["previous"],
        )
        assert list(fresh) == expected_suffix
        fresh.close()
        assert consumed + expected_suffix == list(TraceReader(path))


class TestCursorValidation:
    def _path(self, tmp_path):
        records = [
            TraceRecord(arrival_time=float(i), circuit="ghz_n5")
            for i in range(4)
        ]
        return write_tmp(tmp_path, records)

    def test_cursor_yields_same_records_as_iteration(self, tmp_path):
        path = self._path(tmp_path)
        with TraceReader(path).cursor() as cursor:
            assert list(cursor) == list(TraceReader(path))

    def test_requires_path_source(self, tmp_path):
        path = self._path(tmp_path)
        with open(path) as stream, pytest.raises(TypeError):
            TraceReader(stream).cursor()

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
