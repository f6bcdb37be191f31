#!/usr/bin/env python
"""Write the paper-answer ledger, ``tests/golden/answers.json``.

Regenerates every paper artifact that a tier-1 benchmark checks against the
ledger (Tables I-III and Figs. 6-9, 10-13, 14-17, 18-21 and 22) with the
benchmark modules' own default constants: each module's ``answers()`` names
its entries and the function that computes each one.  Writes a ``numpy``
version and one ``{digest, numbers}`` entry per artifact (see
``benchmarks/answer_ledger.py`` for the canonical form).

This script is the only writer of the ledger.  Run it only in a change that
means to move paper results, and list every moved entry in CHANGES.md with
its old and new numbers.  It takes about a minute.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/answers_ledger.py --out tests/golden/answers.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
#: The benchmark modules that check their answers against the ledger.
MODULES = (
    "test_table1_latency.py",
    "test_table2_circuits.py",
    "test_table3_single_placement.py",
    "test_fig6_9_computing_qubits.py",
    "test_fig10_13_comm_qubits.py",
    "test_fig14_17_multitenant_cdf.py",
    "test_fig18_21_epr_probability.py",
    "test_fig22_scheduling_default.py",
)


def _load(filename: str):
    """Import a benchmark module so script and pytest share one workload."""
    spec = importlib.util.spec_from_file_location(
        Path(filename).stem, BENCHMARKS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # The benchmark modules import the ledger helpers the way pytest does.
    sys.path.insert(0, str(BENCHMARKS))
    from answer_ledger import entry

    artifacts = {}
    for filename in MODULES:
        for artifact, compute in _load(filename).answers().items():
            artifacts[artifact] = entry(compute())
            print(f"{artifact}: {artifacts[artifact]['digest']}", flush=True)
    ledger = {"numpy": numpy.__version__, "artifacts": artifacts}
    text = json.dumps(ledger, indent=1, sort_keys=True)
    # One line per list of numbers keeps a re-baseline's diff readable.
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda match: "[" + re.sub(r",\s+", ", ", match.group(1)) + "]",
        text,
    )
    Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
