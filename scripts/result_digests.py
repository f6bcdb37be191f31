#!/usr/bin/env python
"""Result digests of every perfbench workload, one JSON line per leg.

Runs one ``perfbench/worker.py`` leg per workload and simulation seed in
``SEEDS`` (the trace seed follows the simulation seed, except that
``paper-fig22`` always replays the paper's cloud, trace seed 7) and writes
one ``{workload, trace_seed, sim_seed, digest}`` line per leg.  A pure speed
change leaves every line as it was, so this file can be diffed against the
parent commit's without building both trees.  Exit status 1 when a leg
fails, times out or its replay reports a problem.

Usage (from the repository root)::

    python3 scripts/result_digests.py --out DIGESTS.jsonl
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="DIGESTS.jsonl")
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
    Path(args.out).write_text("".join(f"{line}\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
