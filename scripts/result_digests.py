#!/usr/bin/env python
"""Result digests of every perfbench workload, one JSON line per leg.

Runs one ``perfbench/worker.py`` leg per workload and simulation seed in
``SEEDS`` (the trace seed follows the simulation seed, except that
``paper-fig22`` always replays the paper's cloud, trace seed 7) and writes
a ``{numpy}`` header line naming the numpy version the legs ran with, then
one ``{workload, trace_seed, sim_seed, digest}`` line per leg.  A pure speed
change leaves every leg line as it was.

``--check FILE`` compares the legs with a file this script wrote earlier
(the committed golden file is ``tests/golden/perfbench_digests.jsonl``) and
names every leg whose digest differs, with the recorded and the running
numpy versions.  Rewrite the golden file only with ``--out``, and only in a
change that means to move results.

Exit status 1 when a leg fails, times out or its replay reports a problem,
or when a checked digest differs.

Usage (from the repository root)::

    python3 scripts/result_digests.py --out DIGESTS.jsonl
    python3 scripts/result_digests.py --check tests/golden/perfbench_digests.jsonl
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
#: Simulation seeds of the legs.
SEEDS = (1, 2)


def _perfbench_run():
    """``perfbench/run.py`` as a module, for its workload table and leg runner."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _leg_digests(lines):
    """``{(workload, trace seed, sim seed): digest}`` of leg lines."""
    return {
        (leg["workload"], leg["trace_seed"], leg["sim_seed"]): leg["digest"]
        for leg in map(json.loads, lines)
    }


def check(path: str, lines) -> int:
    """Compare leg lines with a digests file; 1 when any digest differs."""
    header, *recorded_lines = Path(path).read_text().splitlines()
    recorded = _leg_digests(recorded_lines)
    running = _leg_digests(lines)
    legs = list(recorded) + [leg for leg in running if leg not in recorded]
    differing = [leg for leg in legs if recorded.get(leg) != running.get(leg)]
    versions = (
        f"numpy {json.loads(header)['numpy']} recorded, "
        f"{numpy.__version__} running"
    )
    if not differing:
        print(f"all {len(running)} digests match {path} ({versions})")
        return 0
    for workload, trace_seed, sim_seed in differing:
        print(
            f"digest differs: {workload} trace seed {trace_seed} "
            f"sim seed {sim_seed}",
            file=sys.stderr,
        )
    print(
        f"{len(differing)} of {len(legs)} digests differ from {path} "
        f"({versions})",
        file=sys.stderr,
    )
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="DIGESTS.jsonl")
    parser.add_argument(
        "--check", metavar="FILE",
        help="exit 1 unless every digest equals the one recorded in FILE",
    )
    args = parser.parse_args(argv)
    run = _perfbench_run()
    lines = []
    try:
        for workload in run.WORKLOADS:
            for seed in SEEDS:
                trace_seed = run.DEFAULT_TRACE_SEED.get(workload, seed)
                leg = run._run_leg(
                    argparse.Namespace(workload=workload, trace_seed=trace_seed,
                                       sim_seed=seed),
                    time.monotonic() + run.RUN_LIMIT_S,
                )
                replay = leg["replays"][0]
                if replay["problems"]:
                    raise RuntimeError(f"{workload}: {replay['problems']}")
                line = json.dumps({
                    "workload": workload,
                    "trace_seed": trace_seed,
                    "sim_seed": seed,
                    "digest": replay["digest"],
                })
                print(line, flush=True)
                lines.append(line)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"digest run failed: {exc}", file=sys.stderr)
        return 1
    header = json.dumps({"numpy": numpy.__version__})
    Path(args.out).write_text("".join(f"{line}\n" for line in [header, *lines]))
    return check(args.check, lines) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
