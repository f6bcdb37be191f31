"""Recorded-trace ingestion: the on-disk trace schema and streaming reader.

A *recorded trace* is a job-submission log on disk -- one record per job,
sorted by arrival time -- that :meth:`~repro.multitenant.MultiTenantSimulator.
run_stream` can replay **lazily**: records are read one at a time and jobs are
minted at their arrival event, so a million-job trace replays with peak memory
independent of the job count (pair with ``telemetry=`` + ``keep_results=False``
for the output side; see ``docs/architecture.md``, "Trace ingestion & replay").

:class:`TraceCursor` is the one record loop.  Iterating a
:class:`TraceReader` runs a cursor over its path or text source, and
:meth:`TraceReader.cursor` hands out a resumable one (``tell``/``seek``) for
path sources, which is how the simulator reads a path trace.

Trace schema (version 1)
------------------------
A trace is either **jsonl** or **CSV**; both carry the same record fields and
a versioned header, and both are validated strictly on read and on write
(wrong or missing version, unsorted or non-finite timestamps, missing or
unknown fields, line breaks in string fields all raise
:class:`TraceFormatError` naming the offending record).

jsonl: the first line is the header object, every following line one record::

    {"schema": "repro-trace", "version": 1}
    {"t": 0.0, "circuit": "ghz_n8", "tenant": 17}
    {"t": 0.4, "circuit": "qft_n16", "tenant": 3, "priority": 2.0}
    {"t": 1.1, "circuit": "ghz_n4", "tenant": 17, "deadline": 300.0}

CSV: the first line is a ``# repro-trace v1`` header comment, the second the
column header, then one row per record (empty cells mean "absent")::

    # repro-trace v1
    arrival_time,circuit,tenant,priority,deadline
    0.0,ghz_n8,17,,
    0.4,qft_n16,3,2.0,
    1.1,ghz_n4,17,,300.0

Record fields:

``t`` / ``arrival_time``
    Required.  Finite submission timestamp, non-decreasing across the trace.
    Stored in whatever unit the recording used; :class:`TraceReader` can
    rebase/compress into simulator time exactly like
    :func:`~repro.multitenant.arrivals.trace_arrivals` (the two share one
    formula, :func:`~repro.multitenant.arrivals.rebase_timestamp`).
``circuit``
    Required.  A circuit-library reference (``"<family>_n<qubits>"``, e.g.
    ``"ghz_n8"``; see :func:`repro.circuits.library.get_circuit`).  Resolved
    to a circuit object only when the job is minted at its arrival event.
    Contains no line break (``\\n`` or ``\\r``).
``tenant``
    Optional int or string tenant id, fed to per-tenant telemetry.  A
    string contains no line break (``\\n`` or ``\\r``).
``priority``
    Optional finite float.  Recorded submission priority (e.g. a cluster
    scheduling class).  Preserved verbatim by serialization; the replay path
    itself derives scheduling priority from the circuit (Eq. 11), so this
    field is carried for round-tripping and priority-aware policies.
``deadline``
    Optional finite float > 0: the job's queueing-deadline *budget* in trace
    time units (relative to arrival).  Carried for round-tripping; replay
    deadlines come from the simulator's admission policy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    IO,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from ..circuits import QuantumCircuit
from ..circuits.library import get_circuit
from .arrivals import rebase_timestamp

#: Schema identifier carried by every trace header.
TRACE_SCHEMA = "repro-trace"
#: Current (and only) schema version.
TRACE_SCHEMA_VERSION = 1
#: Record fields, in CSV column order.
TRACE_FIELDS = ("arrival_time", "circuit", "tenant", "priority", "deadline")
#: jsonl spelling of each record field (compact, matching the telemetry
#: event stream's style).
_JSONL_KEYS = {"arrival_time": "t"}
#: CSV header comment of the current version.
_CSV_HEADER_COMMENT = f"# {TRACE_SCHEMA} v{TRACE_SCHEMA_VERSION}"
#: Why a resumable cursor refuses a text source.
_CURSOR_NEEDS_PATH = (
    "a trace cursor needs a path-backed source (file objects are "
    "single-pass and cannot be re-opened on resume)"
)


class TraceFormatError(ValueError):
    """A trace file/stream violates the documented schema.

    The message always names the offending record (0-based record index, and
    the file line for on-disk sources) so a malformed row in a million-job
    trace can be located directly.
    """


@lru_cache(maxsize=None)
def cached_circuit(name: str) -> QuantumCircuit:
    """Resolve a circuit-library reference, building each circuit once.

    One process-wide cache shared by trace replay and the synthetic workload
    generators, so replaying a trace never duplicates circuit objects and
    placement-context memoization keys on identical circuit identities.
    """
    return get_circuit(name)


@dataclass(frozen=True)
class TraceRecord:
    """One recorded job submission (see the module docstring for fields)."""

    arrival_time: float
    circuit: str
    tenant: Optional[Union[int, str]] = None
    priority: Optional[float] = None
    deadline: Optional[float] = None

    def resolve_circuit(self) -> QuantumCircuit:
        """Materialize the referenced circuit (cached per library name)."""
        return cached_circuit(self.circuit)

    def replace_arrival(self, arrival_time: float) -> "TraceRecord":
        return TraceRecord(
            arrival_time=arrival_time,
            circuit=self.circuit,
            tenant=self.tenant,
            priority=self.priority,
            deadline=self.deadline,
        )


# ----------------------------------------------------------------------
# Field-level validation (shared by both formats and the writer)
# ----------------------------------------------------------------------
def _fail(index: int, line: Optional[int], message: str) -> "TraceFormatError":
    where = f"trace record #{index}"
    if line is not None:
        where += f" (line {line})"
    return TraceFormatError(f"{where}: {message}")


def _check_record(
    record: TraceRecord,
    index: int,
    line: Optional[int],
    previous_arrival: Optional[float],
) -> None:
    t = record.arrival_time
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise _fail(index, line, f"arrival time must be a number, got {t!r}")
    if not math.isfinite(t):
        raise _fail(index, line, f"arrival time is not finite: {t!r}")
    if previous_arrival is not None and t < previous_arrival:
        raise _fail(
            index,
            line,
            f"arrival times are not sorted: {t} precedes the previous "
            f"record's {previous_arrival}; sort the trace before writing it",
        )
    if not isinstance(record.circuit, str) or not record.circuit:
        raise _fail(
            index, line,
            f"circuit must be a non-empty library name, got {record.circuit!r}",
        )
    tenant = record.tenant
    if tenant is not None and not isinstance(tenant, (int, str)):
        raise _fail(
            index, line, f"tenant must be an int or string, got {tenant!r}"
        )
    # A CSV row must be one physical line for the cursor to read it back.
    for field_name, text in (("circuit", record.circuit), ("tenant", tenant)):
        if isinstance(text, str) and ("\n" in text or "\r" in text):
            raise _fail(
                index, line, f"{field_name} contains a line break: {text!r}"
            )
    for field_name in ("priority", "deadline"):
        value = getattr(record, field_name)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _fail(
                index, line, f"{field_name} must be a number, got {value!r}"
            )
        if not math.isfinite(value):
            raise _fail(index, line, f"{field_name} is not finite: {value!r}")
        if field_name == "deadline" and value <= 0:
            raise _fail(
                index, line,
                f"deadline must be a positive budget, got {value!r}",
            )


def validate_records(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Yield ``records`` unchanged, enforcing the schema invariants.

    Used to validate hand-built record streams without a serialization round
    trip.
    """
    previous: Optional[float] = None
    for index, record in enumerate(records):
        _check_record(record, index, None, previous)
        previous = float(record.arrival_time)
        yield record


# ----------------------------------------------------------------------
# Format detection
# ----------------------------------------------------------------------
def trace_format_for_path(path: Union[str, os.PathLike]) -> str:
    """Infer ``"jsonl"`` or ``"csv"`` from a file extension."""
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix in (".jsonl", ".json", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise TraceFormatError(
        f"cannot infer trace format from {path!r} (expected a .jsonl or .csv "
        "extension); pass format='jsonl' or format='csv' explicitly"
    )


def _resolve_format(
    source: Union[str, os.PathLike, IO[str]], format: Optional[str]
) -> str:
    if format is None:
        if isinstance(source, (str, os.PathLike)):
            return trace_format_for_path(source)
        raise TraceFormatError(
            "format= is required when reading from a file object"
        )
    if format not in ("jsonl", "csv"):
        raise TraceFormatError(
            f"unknown trace format {format!r} (expected 'jsonl' or 'csv')"
        )
    return format


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class TraceReader:
    """Streaming reader over an on-disk recorded trace.

    Iterating a ``TraceReader`` yields :class:`TraceRecord` objects one at a
    time straight off the file -- the trace is never materialized, so a
    10^6-job file replays in bounded memory.  Every record is validated as it
    is read; violations raise :class:`TraceFormatError` with the record index
    and line number.

    Parameters
    ----------
    source:
        A path (format inferred from the extension), or an open text-file
        object or any iterable of lines (``format=`` required;
        single-pass).  Path sources are re-iterable: each ``iter()`` opens
        the file afresh.
    format:
        ``"jsonl"`` or ``"csv"``; inferred from a path's extension when
        omitted.
    start, time_scale:
        Optional rebase into simulator time, applying exactly the
        :func:`~repro.multitenant.arrivals.trace_arrivals` formula: the
        earliest timestamp lands at ``start`` and gaps are multiplied by
        ``time_scale``.  With both left at their defaults (``start=None``,
        ``time_scale=1.0``) timestamps are passed through verbatim, so a
        write/read round trip is the identity.
    """

    def __init__(
        self,
        source: Union[str, os.PathLike, IO[str]],
        format: Optional[str] = None,
        start: Optional[float] = None,
        time_scale: float = 1.0,
    ) -> None:
        self.source = source
        self.format = _resolve_format(source, format)
        if not math.isfinite(time_scale) or time_scale <= 0:
            raise ValueError("time_scale must be positive and finite")
        if start is not None and not math.isfinite(start):
            raise ValueError("start must be finite")
        self._rebase = start is not None or time_scale != 1.0
        self.start = 0.0 if start is None else float(start)
        self.time_scale = float(time_scale)
        self.header: Optional[dict] = None

    # -- header ---------------------------------------------------------
    def _read_jsonl_header(self, line: str, line_no: int) -> dict:
        try:
            header = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TraceFormatError(
                f"line {line_no}: trace header is not valid JSON: {exc}"
            ) from None
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            raise TraceFormatError(
                f"line {line_no}: not a {TRACE_SCHEMA} trace (the first jsonl "
                f"line must be the header object, got {line.strip()!r})"
            )
        version = header.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceFormatError(
                f"line {line_no}: unsupported trace schema version "
                f"{version!r} (this reader understands version "
                f"{TRACE_SCHEMA_VERSION})"
            )
        return header

    def _read_csv_header(self, comment: str, line_no: int) -> dict:
        stripped = comment.strip()
        if stripped != _CSV_HEADER_COMMENT:
            raise TraceFormatError(
                f"line {line_no}: not a {TRACE_SCHEMA} CSV trace (the first "
                f"line must be {_CSV_HEADER_COMMENT!r}, got {stripped!r})"
            )
        return {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION}

    # -- record parsing -------------------------------------------------
    def _parse_jsonl_record(self, line: str, index: int, line_no: int) -> TraceRecord:
        try:
            raw = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            # A RecursionError is JSON nested deeper than the parser goes.
            raise _fail(index, line_no, f"invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise _fail(index, line_no, f"record must be an object, got {raw!r}")
        known = {"t", "circuit", "tenant", "priority", "deadline"}
        # detlint: ignore[DET003] field names are distinct strings; sorted() output is canonical regardless of set order
        unknown = sorted(set(raw) - known)
        if unknown:
            raise _fail(
                index, line_no,
                f"unknown field(s) {unknown} (schema v{TRACE_SCHEMA_VERSION} "
                f"fields: {sorted(known)})",
            )
        if "t" not in raw:
            raise _fail(index, line_no, "missing required field 't'")
        if "circuit" not in raw:
            raise _fail(index, line_no, "missing required field 'circuit'")
        priority = raw.get("priority")
        deadline = raw.get("deadline")
        return TraceRecord(
            arrival_time=raw["t"],
            circuit=raw.get("circuit"),
            tenant=raw.get("tenant"),
            priority=None if priority is None else priority,
            deadline=None if deadline is None else deadline,
        )

    def _parse_csv_row(
        self,
        row: Sequence[str],
        columns: Sequence[str],
        index: int,
        line_no: int,
    ) -> TraceRecord:
        if len(row) != len(columns):
            raise _fail(
                index, line_no,
                f"expected {len(columns)} columns, got {len(row)}",
            )
        cells = dict(zip(columns, row))

        def number(column: str) -> Optional[float]:
            cell = cells.get(column, "")
            if cell == "":
                return None
            try:
                return float(cell)
            except ValueError:
                raise _fail(
                    index, line_no,
                    f"column {column!r} is not a number: {cell!r}",
                ) from None

        arrival = number("arrival_time")
        if arrival is None:
            raise _fail(index, line_no, "missing required column 'arrival_time'")
        tenant_cell = cells.get("tenant", "")
        tenant: Optional[Union[int, str]]
        if tenant_cell == "":
            tenant = None
        else:
            # Integer tenant ids round-trip as ints; anything else is a string.
            try:
                tenant = int(tenant_cell)
            except ValueError:
                tenant = tenant_cell
        return TraceRecord(
            arrival_time=arrival,
            circuit=cells.get("circuit", ""),
            tenant=tenant,
            priority=number("priority"),
            deadline=number("deadline"),
        )

    def _check_columns(
        self, row: Sequence[str], line_no: int
    ) -> "list[str]":
        columns = [cell.strip() for cell in row]
        # detlint: ignore[DET003] column names are distinct strings; sorted() output is canonical regardless of set order
        unknown = sorted(set(columns) - set(TRACE_FIELDS))
        if unknown:
            raise TraceFormatError(
                f"line {line_no}: unknown column(s) {unknown} "
                f"(schema v{TRACE_SCHEMA_VERSION} columns: "
                f"{list(TRACE_FIELDS)})"
            )
        for required in ("arrival_time", "circuit"):
            if required not in columns:
                raise TraceFormatError(
                    f"line {line_no}: missing required column "
                    f"{required!r}"
                )
        return columns

    def _emit(self, record: TraceRecord, first: float) -> TraceRecord:
        if not self._rebase:
            return record
        return record.replace_arrival(
            rebase_timestamp(
                float(record.arrival_time), first, self.start, self.time_scale
            )
        )

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> Iterator[TraceRecord]:
        cursor = TraceCursor(self)
        try:
            yield from cursor
        finally:
            cursor.close()

    def cursor(self) -> "TraceCursor":
        """Open a byte-addressable, resumable iterator (path sources only).

        The cursor yields exactly the records plain iteration yields, but
        additionally supports :meth:`TraceCursor.tell` /
        :meth:`TraceCursor.seek`, so a resumed replay re-opens a 10^6-job
        trace at the saved byte offset instead of rescanning the prefix.
        """
        if not isinstance(self.source, (str, os.PathLike)):
            raise TraceFormatError(_CURSOR_NEEDS_PATH)
        return TraceCursor(self)


class TraceCursor:
    """The trace record loop: one parsed, validated record per ``next()``.

    Iterating a :class:`TraceReader` runs a cursor, so both yield the same
    records.  A path source is read in binary mode with manual offset
    accounting, so :meth:`tell` is exact at every record boundary and
    :meth:`seek` can re-position a fresh cursor (even in a different
    process) to continue exactly where a previous one stopped.  A text
    source (an open text-file object or any iterable of lines) is read
    one line at a time, single pass, and has no :meth:`tell` /
    :meth:`seek`.

    Every CSV row is one physical line: the schema forbids line breaks in
    the string fields, so a record that needs a multi-line row is rejected
    on write and on read alike.
    """

    def __init__(self, reader: TraceReader) -> None:
        self._reader = reader
        source = reader.source
        self._stream: Optional[IO[bytes]] = None
        if isinstance(source, (str, os.PathLike)):
            self._stream = open(source, "rb")
        else:
            # Shadow _read_line on this instance only, so path sources keep
            # their branch-free per-line read.
            self._lines = iter(source)
            self._read_line = self._read_text_line
        self._offset = 0
        self._line_no: Optional[int] = 0
        self._index = 0
        self._previous: Optional[float] = None
        self._first: Optional[float] = None
        self._columns: Optional[Sequence[str]] = None
        self._data_offset: Optional[int] = None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()

    def __enter__(self) -> "TraceCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- position accessors (checkpointed by the simulator) -------------
    @property
    def index(self) -> int:
        """0-based index of the next record to be read."""
        return self._index

    @property
    def line_no(self) -> Optional[int]:
        """Physical line number already consumed (None after a blind seek)."""
        return self._line_no

    @property
    def previous_arrival(self) -> Optional[float]:
        """Raw (pre-rebase) arrival of the last record read, if any."""
        return self._previous

    @property
    def first_arrival(self) -> Optional[float]:
        """Raw arrival of the trace's first record, once known."""
        return self._first

    def tell(self) -> int:
        """Byte offset of the next unread record line."""
        self._require_path()
        if self._data_offset is None:
            self._read_prologue()
        return self._offset

    def seek(
        self,
        offset: int,
        index: int = 0,
        line_no: Optional[int] = None,
        previous: Optional[float] = None,
        first: Optional[float] = None,
    ) -> None:
        """Re-position to a byte offset previously returned by :meth:`tell`.

        Only :meth:`tell` outputs (record boundaries) are valid offsets.
        The keyword state re-seeds bookkeeping across the jump: ``index``
        and ``line_no`` feed error messages, ``previous`` re-arms the
        sortedness check over the seam, and ``first`` restores the rebase
        origin.  When ``first`` is omitted but the reader rebases
        timestamps, the first record is re-read from the head of the file
        to recover it, so a bare ``seek(tell())`` round trip stays correct.
        """
        self._require_path()
        if offset < 0:
            raise ValueError(f"seek offset cannot be negative, got {offset}")
        if self._data_offset is None:
            self._read_prologue()
        if offset < self._data_offset:
            raise TraceFormatError(
                f"seek offset {offset} lies inside the trace header "
                f"(records start at byte {self._data_offset})"
            )
        self._stream.seek(offset)
        self._offset = offset
        self._index = int(index)
        self._line_no = None if line_no is None else int(line_no)
        self._previous = None if previous is None else float(previous)
        if first is not None:
            self._first = float(first)
        elif offset > self._data_offset and self._reader._rebase:
            self._first = self._probe_first_arrival()
        else:
            self._first = None

    def _probe_first_arrival(self) -> float:
        probe = TraceCursor(self._reader)
        try:
            if next(iter(probe), None) is None:
                raise TraceFormatError(
                    "cannot seek into a trace that has no records"
                )
            assert probe._first is not None
            return probe._first
        finally:
            probe.close()

    def _require_path(self) -> None:
        if self._stream is None:
            raise TraceFormatError(_CURSOR_NEEDS_PATH)

    # -- reading --------------------------------------------------------
    def _read_text_line(self) -> Optional[str]:
        line = next(self._lines, None)
        if line is not None:
            self._line_no += 1
        return line

    def _read_line(self) -> Optional[str]:
        raw = self._stream.readline()
        if not raw:
            return None
        self._offset += len(raw)
        if self._line_no is not None:
            self._line_no += 1
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            if self._data_offset is None:
                raise TraceFormatError(
                    f"line {self._line_no}: trace header is not UTF-8: {exc}"
                ) from None
            raise _fail(self._index, self._line_no, f"not UTF-8: {exc}") from None

    def _read_prologue(self) -> None:
        """Consume the header (and CSV column row), stopping at record 0."""
        reader = self._reader
        if reader.format == "jsonl":
            while True:
                line = self._read_line()
                if line is None:
                    raise TraceFormatError(
                        "trace is empty: missing the header line"
                    )
                if line.strip():
                    break
            reader.header = reader._read_jsonl_header(line, self._line_no)
        else:
            comment = self._read_line()
            if comment is None:
                raise TraceFormatError("trace is empty: missing the header line")
            reader.header = reader._read_csv_header(comment, 1)
            while True:
                row_line = self._read_line()
                if row_line is None:
                    raise TraceFormatError(
                        "trace has a header but no column row"
                    )
                row = next(csv.reader([row_line]), [])
                if not row:
                    continue
                self._columns = reader._check_columns(row, self._line_no)
                break
        self._data_offset = self._offset

    def __iter__(self) -> "TraceCursor":
        return self

    def __next__(self) -> TraceRecord:
        if self._data_offset is None:
            self._read_prologue()
        reader = self._reader
        while True:
            line = self._read_line()
            if line is None:
                raise StopIteration
            if reader.format == "jsonl":
                if not line.strip():
                    continue
                record = reader._parse_jsonl_record(
                    line, self._index, self._line_no
                )
            else:
                row = next(csv.reader([line]), [])
                if not row:
                    continue
                record = reader._parse_csv_row(
                    row, self._columns, self._index, self._line_no
                )
            _check_record(record, self._index, self._line_no, self._previous)
            self._previous = float(record.arrival_time)
            if self._first is None:
                self._first = self._previous
            self._index += 1
            return reader._emit(record, self._first)


def read_trace(
    source: Union[str, os.PathLike, IO[str]],
    format: Optional[str] = None,
    start: Optional[float] = None,
    time_scale: float = 1.0,
) -> Iterator[TraceRecord]:
    """Convenience: iterate a trace lazily (see :class:`TraceReader`)."""
    return iter(TraceReader(source, format=format, start=start, time_scale=time_scale))


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _tenant_cell(tenant: Optional[Union[int, str]]) -> str:
    return "" if tenant is None else str(tenant)


def _number_cell(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_trace(
    destination: Union[str, os.PathLike, IO[str]],
    records: Iterable[TraceRecord],
    format: Optional[str] = None,
) -> int:
    """Write ``records`` as a versioned on-disk trace; returns the count.

    Streams record by record (an iterator source is never materialized) and
    validates while writing, so an unsorted or non-finite record raises
    :class:`TraceFormatError` with its index instead of producing a file that
    every reader will later reject.  ``destination`` is a path (format
    inferred from the extension) or a writable text-file object (``format=``
    required).

    Float fields are serialized with ``repr`` so a write/read round trip
    reproduces every value bit-for-bit in both formats.
    """
    fmt = _resolve_format(destination, format)
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8", newline="") as stream:
            return _write_to(stream, records, fmt)
    return _write_to(destination, records, fmt)


def _write_to(stream: IO[str], records: Iterable[TraceRecord], fmt: str) -> int:
    count = 0
    previous: Optional[float] = None
    if fmt == "jsonl":
        stream.write(
            json.dumps({"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION})
            + "\n"
        )
        for index, record in enumerate(records):
            _check_record(record, index, None, previous)
            previous = float(record.arrival_time)
            raw = {"t": previous, "circuit": record.circuit}
            if record.tenant is not None:
                raw["tenant"] = record.tenant
            if record.priority is not None:
                raw["priority"] = float(record.priority)
            if record.deadline is not None:
                raw["deadline"] = float(record.deadline)
            stream.write(json.dumps(raw) + "\n")
            count += 1
        return count
    stream.write(_CSV_HEADER_COMMENT + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRACE_FIELDS)
    for index, record in enumerate(records):
        _check_record(record, index, None, previous)
        previous = float(record.arrival_time)
        writer.writerow(
            [
                repr(previous),
                record.circuit,
                _tenant_cell(record.tenant),
                _number_cell(record.priority),
                _number_cell(record.deadline),
            ]
        )
        count += 1
    return count


def trace_to_string(records: Iterable[TraceRecord], format: str = "jsonl") -> str:
    """Serialize a (small) record stream to an in-memory trace document."""
    buffer = io.StringIO()
    write_trace(buffer, records, format=format)
    return buffer.getvalue()
