"""Crash-safe checkpoint snapshots for resumable stream replays.

This module owns the *container*: the on-disk envelope, its atomic write
protocol, and the header validation performed before a resume.  What goes
*into* a snapshot (engine queue, RNG streams, controller state, telemetry
sketches, trace cursor) is captured and restored by
:mod:`repro.multitenant.cluster_sim`, which keeps this module free of
simulator imports.

Snapshot layout (json, one object)::

    {
      "schema": "repro-checkpoint",
      "version": 6,
      "checksum": "sha256:<hex of the serialized state>",
      "fingerprint": { ... run configuration, compared field-by-field ... },
      "state": { ... everything needed to resume ... }
    }

Atomicity: the file is written to a temp name in the destination directory,
flushed and fsynced, then renamed over the target (rename within one
filesystem is atomic on POSIX), and the directory is fsynced so the rename
itself is durable.  A crash mid-write therefore leaves either the previous
complete snapshot or none; it can never leave a torn one.  The checksum
guards against torn *reads* (e.g. copying a snapshot off a dying host).

Floats survive the json round trip bit-exactly: Python serializes them via
``repr`` and ``float(repr(x)) == x`` for every finite float, which is what
makes bit-identical resume possible at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional

CHECKPOINT_SCHEMA = "repro-checkpoint"
CHECKPOINT_VERSION = 6


class CheckpointError(RuntimeError):
    """Raised when a snapshot cannot be written, read, or restored."""


class CheckpointMismatchError(CheckpointError):
    """Resume refused: the run configuration differs from the snapshot's.

    ``field`` names the first differing configuration field so the error
    message tells the user exactly what changed since the snapshot.
    """

    def __init__(self, field: str, saved: Any, current: Any) -> None:
        self.field = field
        self.saved = saved
        self.current = current
        super().__init__(
            f"checkpoint fingerprint mismatch on {field!r}: "
            f"snapshot was taken with {saved!r}, resuming run has {current!r}"
        )


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often ``run_stream`` writes snapshots.

    ``path`` (a ``str`` or any path-like, stored as ``str``) is overwritten
    in place (atomically) at every checkpoint, so it always holds the latest
    snapshot.  ``every_jobs`` snapshots after that many newly *finished*
    jobs.  Omitting it still arms the SIGTERM/SIGINT final-snapshot handler,
    which is useful on preemptible hosts.
    """

    path: str
    every_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.path:
            raise CheckpointError("CheckpointConfig needs a snapshot path")
        # Frozen dataclass: the snapshot stores the path as json, so a
        # path-like is normalised to the str a str argument would give.
        object.__setattr__(self, "path", os.fspath(self.path))
        if self.every_jobs is not None and self.every_jobs < 1:
            raise CheckpointError("every_jobs must be a positive integer")


def _state_checksum(serialized_state: str) -> str:
    digest = hashlib.sha256(serialized_state.encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


#: ``json.dumps(value, separators=(",", ":"))`` without building an encoder
#: per call: the compact encoding of every snapshot state.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


class _JSONText(str):
    """Compact json text of one state value, spliced verbatim into a snapshot.

    The simulator encodes each finished job and each recorded result once
    and hands a state list over as the join of those texts, so a snapshot
    does not re-encode them; the snapshot bytes equal those of encoding the
    decoded value.
    """


def _encode_state(state: Dict[str, Any]) -> str:
    """The compact encoding of ``state``, splicing ``_JSONText`` values."""
    return "{%s}" % ",".join(
        _encode_compact(key)
        + ":"
        + (value if isinstance(value, _JSONText) else _encode_compact(value))
        for key, value in state.items()
    )


def write_snapshot(
    path: str, fingerprint: Dict[str, Any], state: Dict[str, Any]
) -> int:
    """Atomically write a snapshot; returns the file size in bytes."""
    serialized_state = _encode_state(state)
    envelope = (
        '{"schema":%s,"version":%d,"checksum":%s,"fingerprint":%s,"state":%s}'
        % (
            json.dumps(CHECKPOINT_SCHEMA),
            CHECKPOINT_VERSION,
            json.dumps(_state_checksum(serialized_state)),
            json.dumps(fingerprint, separators=(",", ":"), sort_keys=True),
            serialized_state,
        )
    )
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(envelope)
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # Make the rename itself durable.  Some filesystems don't support
    # fsync on directories; a snapshot that survives everything but a
    # same-instant power cut is still useful, so failures are ignored.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - filesystem dependent
        pass
    return len(envelope.encode("utf-8"))


def read_snapshot(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot envelope (schema, version, checksum)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"snapshot {path!r} is not UTF-8 text ({exc}); the file is "
            "corrupt or was not written by this module"
        ) from exc
    try:
        envelope = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # A RecursionError is JSON nested deeper than the parser goes.
        raise CheckpointError(
            f"snapshot {path!r} is not valid json ({exc}); the file is "
            "corrupt or was not written by this module"
        ) from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"snapshot {path!r}: expected a json object")
    schema = envelope.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointMismatchError("schema", schema, CHECKPOINT_SCHEMA)
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatchError("version", version, CHECKPOINT_VERSION)
    for key in ("checksum", "fingerprint", "state"):
        if key not in envelope:
            raise CheckpointError(f"snapshot {path!r}: missing {key!r} field")
    serialized_state = json.dumps(envelope["state"], separators=(",", ":"))
    expected = _state_checksum(serialized_state)
    if envelope["checksum"] != expected:
        raise CheckpointError(
            f"snapshot {path!r}: checksum mismatch "
            f"(stored {envelope['checksum']!r}, computed {expected!r}); "
            "the file is corrupt"
        )
    return envelope


def check_fingerprint(
    saved: Dict[str, Any], current: Dict[str, Any]
) -> None:
    """Compare run fingerprints field-by-field; raise naming the first diff."""
    # detlint: ignore[DET003] fingerprint fields are distinct strings; sorted() output is canonical regardless of set order
    for field in sorted(set(saved) | set(current)):
        saved_value = saved.get(field, "<absent>")
        current_value = current.get(field, "<absent>")
        if saved_value != current_value:
            raise CheckpointMismatchError(field, saved_value, current_value)
