"""Recorded-trace ingestion: the on-disk trace schema and streaming reader.

A *recorded trace* is a job-submission log on disk -- one record per job,
sorted by arrival time -- that :meth:`~repro.multitenant.MultiTenantSimulator.
run_stream` can replay **lazily**: records are read one at a time and jobs are
minted at their arrival event, so a million-job trace replays with peak memory
independent of the job count (pair with ``telemetry=`` + ``keep_results=False``
for the output side; see ``docs/architecture.md``, "Trace ingestion & replay").

:class:`TraceCursor` is the one record loop.  Iterating a
:class:`TraceReader` runs a cursor over its path, and
:meth:`TraceReader.cursor` hands out a resumable one (``tell``/``seek``),
which is how the simulator reads a path trace.

Trace schema (version 2)
------------------------
A trace is a jsonl file, whatever its extension: the first line is the
header object, every following line one record::

    {"schema": "repro-trace", "version": 2}
    {"t": 0.0, "circuit": "ghz_n8", "tenant": 17}
    {"t": 0.4, "circuit": "qft_n16", "tenant": "acme"}
    {"t": 1.1, "circuit": "ghz_n4"}

It is validated strictly on read and on write (wrong or missing version,
unsorted or non-finite timestamps, missing or unknown fields, line breaks in
string fields all raise :class:`TraceFormatError` naming the offending
record).

Record fields:

``t``
    Required.  Finite submission timestamp, non-decreasing across the trace,
    replayed verbatim as the job's arrival time.  To replay a log recorded
    in another unit or origin, rebase its timestamps with
    :func:`~repro.multitenant.arrivals.trace_arrivals` before writing it.
``circuit``
    Required.  A circuit-library reference (``"<family>_n<qubits>"``, e.g.
    ``"ghz_n8"``; see :func:`repro.circuits.library.get_circuit`).  Resolved
    to a circuit object only when the job is minted at its arrival event.
    Contains no line break (``\\n`` or ``\\r``).
``tenant``
    Optional int or string tenant id, fed to per-tenant telemetry.  A
    string contains no line break (``\\n`` or ``\\r``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable, Iterator, Optional, Union

from ..circuits import QuantumCircuit
from ..circuits.library import get_circuit

#: Schema identifier carried by every trace header.
TRACE_SCHEMA = "repro-trace"
#: Current (and only) schema version.
TRACE_SCHEMA_VERSION = 2


class TraceFormatError(ValueError):
    """A trace file violates the documented schema.

    The message always names the offending record (0-based record index, and
    the file line when it was read from disk) so a malformed row in a
    million-job trace can be located directly.
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

    def resolve_circuit(self) -> QuantumCircuit:
        """Materialize the referenced circuit (cached per library name)."""
        return cached_circuit(self.circuit)


# ----------------------------------------------------------------------
# Field-level validation (shared by the reader and the writer)
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
    try:
        finite = math.isfinite(t)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
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
    # The cursor reads one record per physical line.
    for field_name, text in (("circuit", record.circuit), ("tenant", tenant)):
        if isinstance(text, str) and ("\n" in text or "\r" in text):
            raise _fail(
                index, line, f"{field_name} contains a line break: {text!r}"
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
# Parsing
# ----------------------------------------------------------------------
def _check_header(line: str, line_no: int) -> None:
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:
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


def _parse_record(line: str, index: int, line_no: Optional[int]) -> TraceRecord:
    try:
        raw = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Besides a JSONDecodeError: a RecursionError is JSON nested deeper
        # than the parser goes, a plain ValueError an integer with more
        # digits than Python converts.
        raise _fail(index, line_no, f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise _fail(index, line_no, f"record must be an object, got {raw!r}")
    known = {"t", "circuit", "tenant"}
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
    return TraceRecord(
        arrival_time=raw["t"], circuit=raw["circuit"], tenant=raw.get("tenant")
    )


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class TraceReader:
    """Streaming reader over an on-disk recorded trace.

    Iterating a ``TraceReader`` yields :class:`TraceRecord` objects one at a
    time straight off the file -- the trace is never materialized, so a
    10^6-job file replays in bounded memory.  Every record is validated as it
    is read; violations raise :class:`TraceFormatError` with the record index
    and line number.  Each ``iter()`` opens the file afresh, so a reader is
    re-iterable.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = path

    def __iter__(self) -> Iterator[TraceRecord]:
        cursor = TraceCursor(self.path)
        try:
            yield from cursor
        finally:
            cursor.close()

    def cursor(self) -> "TraceCursor":
        """Open a byte-addressable, resumable iterator.

        The cursor yields exactly the records plain iteration yields, but
        additionally supports :meth:`TraceCursor.tell` /
        :meth:`TraceCursor.seek`, so a resumed replay re-opens a 10^6-job
        trace at the saved byte offset instead of rescanning the prefix.
        """
        return TraceCursor(self.path)


class TraceCursor:
    """The trace record loop: one parsed, validated record per ``next()``.

    Iterating a :class:`TraceReader` runs a cursor, so both yield the same
    records.  The file is read in binary mode with manual offset
    accounting, so :meth:`tell` is exact at every record boundary and
    :meth:`seek` can re-position a fresh cursor (even in a different
    process) to continue exactly where a previous one stopped.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._stream: IO[bytes] = open(path, "rb")
        self._offset = 0
        self._line_no: Optional[int] = 0
        self._index = 0
        self._previous: Optional[float] = None
        self._data_offset: Optional[int] = None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
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
        """Arrival of the last record read, if any."""
        return self._previous

    def tell(self) -> int:
        """Byte offset of the next unread record line."""
        if self._data_offset is None:
            self._read_prologue()
        return self._offset

    def seek(
        self,
        offset: int,
        index: int = 0,
        line_no: Optional[int] = None,
        previous: Optional[float] = None,
    ) -> None:
        """Re-position to a byte offset previously returned by :meth:`tell`.

        Only :meth:`tell` outputs (record boundaries) are valid offsets.
        The keyword state re-seeds bookkeeping across the jump: ``index``
        and ``line_no`` feed error messages, and ``previous`` re-arms the
        sortedness check over the seam.
        """
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

    # -- reading --------------------------------------------------------
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
        """Consume the header line, stopping at record 0."""
        while True:
            line = self._read_line()
            if line is None:
                raise TraceFormatError("trace is empty: missing the header line")
            if line.strip():
                break
        _check_header(line, self._line_no)
        self._data_offset = self._offset

    def __iter__(self) -> "TraceCursor":
        return self

    def __next__(self) -> TraceRecord:
        if self._data_offset is None:
            self._read_prologue()
        while True:
            line = self._read_line()
            if line is None:
                raise StopIteration
            if not line.strip():
                continue
            record = _parse_record(line, self._index, self._line_no)
            _check_record(record, self._index, self._line_no, self._previous)
            self._previous = float(record.arrival_time)
            self._index += 1
            return record


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_trace(
    path: Union[str, os.PathLike], records: Iterable[TraceRecord]
) -> int:
    """Write ``records`` as a versioned on-disk trace; returns the count.

    Streams record by record (an iterator source is never materialized) and
    validates while writing, so an unsorted or non-finite record raises
    :class:`TraceFormatError` with its index instead of producing a file that
    every reader will later reject.

    Arrival times are serialized with ``repr`` (through ``json``), so a
    write/read round trip reproduces every value bit-for-bit.
    """
    count = 0
    previous: Optional[float] = None
    with open(path, "w", encoding="utf-8", newline="") as stream:
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
            stream.write(json.dumps(raw) + "\n")
            count += 1
    return count
