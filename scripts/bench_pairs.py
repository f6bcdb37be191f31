#!/usr/bin/env python
"""Interleaved parent-vs-change perfbench pairs, written as one BENCH JSON file.

Runs ``perfbench/run.py --trace 0`` once per seed in each of two source
trees, one after the other, so host drift hits both sides of a pair.  The
side that runs first alternates per seed: the parent runs first on odd
seeds, the change on even ones.  ``--traced-seed`` adds one ``--trace 1``
run per tree, in the same alternation, for the per-layer table.

The output keeps every run's last stdout line (the perfbench JSON), the
seeds, each pair's side order, and a summary of every end-to-end metric
that ``BENCHMARK.json`` declares: per side its median and quartiles, the
change-over-parent ratio of the medians (oriented so that above 1 is
better), and the number of pairs the change won.

Exit status 1 when a run fails or reports ``correct: false``; the file is
written either way.

Usage (from the repository root; the parent tree is any checkout of the
parent commit, e.g. made with ``git archive``)::

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/bench_pairs.py --parent /tmp/parent --workload anchor-burst \\
        --seeds 11 12 13 14 15 16 17 18 19 20 --traced-seed 1 --out BENCH_22.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def run(tree: Path, workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    """One ``perfbench/run.py`` run in ``tree``: its table lines and last line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "stderr": done.stderr[-2000:]}
    result["exit_code"] = done.returncode
    if traced:
        result["table"] = lines[:-1]
    return result


def side_order(seed: int) -> List[str]:
    return ["parent", "change"] if seed % 2 else ["change", "parent"]


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: List[Dict], end_to_end: List[Dict]) -> Dict:
    """Medians, quartiles, ratio of medians and wins per end-to-end metric."""
    summary = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs
                   if name in pair[side].get("metrics", {})]
            for side in ("parent", "change")
        }
        if not sides["parent"] or len(sides["parent"]) != len(sides["change"]):
            continue
        parent, change = (statistics.median(sides[s]) for s in ("parent", "change"))
        if higher:
            ratio = change / parent if parent else float("nan")
        else:
            ratio = parent / change if change else float("nan")
        wins = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(sides["parent"], sides["change"])
        )
        summary[name] = {
            "better": spec["better"],
            "parent_median": parent,
            "change_median": change,
            "parent_quartiles": quartiles(sides["parent"]),
            "change_quartiles": quartiles(sides["change"]),
            "ratio_of_medians": ratio,
            "change_wins": wins,
            "pairs": len(sides["parent"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", type=Path, required=True,
                        help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="source tree of the change (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced-seed", type=int,
                        help="also run one traced run per tree at this seed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for seed in args.seeds:
        print(f"{args.workload}: seed {seed}", flush=True)
        pair = {"seed": seed, "order": side_order(seed)}
        for side in pair["order"]:
            pair[side] = run(trees[side], args.workload, seed, args.seconds, False)
            print(f"  {side}: exit {pair[side]['exit_code']}", flush=True)
        pairs.append(pair)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pairs": pairs,
        "summary": summarize(pairs, end_to_end),
    }
    runs = [pair[side] for pair in pairs for side in ("parent", "change")]
    if args.traced_seed is not None:
        print(f"{args.workload}: traced, seed {args.traced_seed}", flush=True)
        traced = {"seed": args.traced_seed, "order": side_order(args.traced_seed)}
        for side in traced["order"]:
            traced[side] = run(
                trees[side], args.workload, args.traced_seed, args.seconds, True
            )
            runs.append(traced[side])
        report["traced"] = traced
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, row in report["summary"].items():
        print(f"  {name}: parent {row['parent_median']:.4g}, change "
              f"{row['change_median']:.4g}, ratio {row['ratio_of_medians']:.3f}, "
              f"change won {row['change_wins']}/{row['pairs']}")
    failed = [r for r in runs if r["exit_code"] != 0 or not r.get("correct")]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
