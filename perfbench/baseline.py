"""Record a baseline: every end-to-end metric over several seeds, twice.

Usage (from the repository root)::

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed (1..10) on each workload, one run
at a time, and then does the whole set again.  For each set it writes the
median, quartiles and spread (quartile distance over the median) of each
end-to-end metric; for each metric it writes how far the second median
moved from the first, as a share of the first.  Last, it records one
traced per-layer table per workload (seed 1).  Exits 1 if any run fails
its checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Ten seeds per set, as in the acceptance check of a benchmark.
SEEDS = list(range(1, 11))
SETS = ("end_to_end", "end_to_end_repeat")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    report = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "processor": platform.processor()},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {workload: {} for workload in workloads},
    }
    for key in SETS:
        for workload in workloads:
            runs = [_run(workload, seed, seconds, 0)["metrics"]
                    for seed in SEEDS]
            report["workloads"][workload][key] = {
                name: dict(_stats([run[name]["value"] for run in runs]),
                           unit=runs[0][name]["unit"])
                for name in runs[0]
            }
    for workload, entry in report["workloads"].items():
        first, second = (entry[key] for key in SETS)
        entry["median_shift"] = {
            name: (second[name]["median"] - first[name]["median"])
            / first[name]["median"]
            for name in first
        }
        for name, shift in entry["median_shift"].items():
            spreads = [entry[key][name]["spread"] for key in SETS]
            flag = "" if name == "setup_s" or max(spreads) <= bounds[name] / 3 \
                else "  <-- spread above a third of the bound"
            print(f"{workload:<15} {name:<15} median {first[name]['median']:12.6g} "
                  f"spreads {spreads[0]:.4f} {spreads[1]:.4f} shift {shift:+.4f} "
                  f"(bound {bounds[name]}){flag}")
        traced = _run(workload, 1, seconds, 1)["metrics"]
        entry["per_layer_seed1"] = {
            name: metric["value"] for name, metric in traced.items()
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
