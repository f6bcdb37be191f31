"""The paper-answer ledger: one recorded answer per paper artifact.

``tests/golden/answers.json`` holds, for every table and figure that a
tier-1 benchmark regenerates at its default scale, a canonical digest of
the regenerated answer and the answer's paper-facing numbers (per-method
means, remote-operation counts, errors against the paper's values).  Each
of those benchmarks checks its answer with :func:`check_answer`, so a change
that moves a paper number fails tier-1 and names the artifact.

Only ``scripts/answers_ledger.py --out tests/golden/answers.json`` writes
the file, in a change that means to move results; such a change lists every
moved entry in CHANGES.md with its old and new numbers.

The canonical form follows perfbench's result digests: sorted keys, floats
as ``repr`` strings, tuples as lists.  The digest is the SHA-256 of its
compact JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping

import numpy

LEDGER = Path(__file__).resolve().parents[1] / "tests" / "golden" / "answers.json"


def _convert(value: Any, real) -> Any:
    if isinstance(value, Mapping):
        return {str(key): _convert(item, real) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_convert(item, real) for item in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return real(float(value))


def digest(answer: Any) -> str:
    """SHA-256 of the answer's canonical JSON (sorted keys, ``repr`` floats)."""
    text = json.dumps(_convert(answer, repr), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _number(value: float) -> Any:
    # JSON has no NaN or infinity; those are recorded as their repr.
    return value if math.isfinite(value) else repr(value)


def entry(answer: Any) -> Dict[str, Any]:
    """The ledger entry of one answer: its digest and its numbers."""
    return {"digest": digest(answer), "numbers": _convert(answer, _number)}


def _differences(recorded: Any, running: Any, path: str) -> Iterator[str]:
    if isinstance(recorded, dict) and isinstance(running, dict):
        for key in sorted(set(recorded) | set(running)):
            yield from _differences(
                recorded.get(key), running.get(key), f"{path}/{key}"
            )
    elif (
        isinstance(recorded, list)
        and isinstance(running, list)
        and len(recorded) == len(running)
    ):
        for index, (old, new) in enumerate(zip(recorded, running)):
            yield from _differences(old, new, f"{path}[{index}]")
    elif recorded != running:
        yield f"{path}: {recorded} -> {running}"


def check_answer(artifact: str, answer: Any) -> None:
    """Fail unless ``answer`` equals the ledger's entry for ``artifact``.

    The message names the artifact, every number that moved (recorded ->
    running) and the recorded and running numpy versions.
    """
    ledger = json.loads(LEDGER.read_text())
    recorded = ledger["artifacts"].get(artifact)
    running = entry(answer)
    if recorded is not None and recorded["digest"] == running["digest"]:
        return
    moved = (
        ["no recorded entry"]
        if recorded is None
        else list(_differences(recorded["numbers"], running["numbers"], artifact))
    )
    raise AssertionError(
        f"paper answer {artifact!r} differs from {LEDGER.name} "
        f"(numpy {ledger['numpy']} recorded, {numpy.__version__} running):\n  "
        + "\n  ".join(moved or ["digest differs, numbers equal"])
    )
