"""Host-time benchmark of the CloudQC simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload anchor-burst --seed 1 --seconds 30 --trace 0

``--trace 0`` runs three untraced legs of the workload, one worker process
at a time, which together replay it for about ``--seconds``, and reports
the end-to-end metrics.  ``--trace 1`` runs one leg that replays the
workload for a warm-up, then untraced, traced and untraced again, and
reports the per-layer metrics.  Every replay checks its outputs; all replays of a run share their
seeds, so their result digests must be identical.  The last stdout line is
one JSON object; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("anchor-burst", "epr-contention", "cluster-trace", "paper-fig22")
#: Hard limit on one run; a leg still going then is killed.
RUN_LIMIT_S = 170.0
#: Untraced legs per run, so set-up time and peak RSS have three samples.
LEGS = 3
#: Trace seeds used when --trace-seed and --seed leave them open.
DEFAULT_TRACE_SEED = {"paper-fig22": 7}

END_TO_END = (
    ("jobs_per_ref", "jobs/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mean_jct", "cx_units"),
    ("completed_frac", "ratio"),
)

#: Per-layer metrics besides each span's calls, s and self_s:
#: name -> (unit, function of the counters, the trace and the traced replay).
_COUNTED = {
    "sim.engine.events": ("count", lambda c, t, r: c["sim.engine.events"]),
    "sim.engine.scheduled": ("count", lambda c, t, r: c["sim.engine.scheduled"]),
    "multitenant.admission.reject_frac": (
        "ratio", lambda c, t, r: _frac(c["admission.rejects"], c["admission.admits"])),
    "multitenant.batch_manager.order.jobs_scanned": (
        "count", lambda c, t, r: c["batch_manager.jobs_scanned"]),
    "placement.fail_frac": ("ratio", lambda c, t, r: _frac(
        c["placement.failures"], t["layers"]["placement.place"]["calls"])),
    "placement.context.hit_rate": ("ratio", lambda c, t, r: _frac(
        t["context_hits"], t["context_hits"] + t["context_misses"])),
    "placement.context.misses": ("count", lambda c, t, r: t["context_misses"]),
    "placement.paper_remote_ops_err": (
        "ratio", lambda c, t, r: r.get("paper_remote_ops_err", 0.0)),
    "sim_p99_jct": ("cx_units", lambda c, t, r: r["sim_p99_jct"]),
    "multitenant.preemption.evictions": (
        "count", lambda c, t, r: c["preemption.evictions"]),
    "scheduling.requests": ("count", lambda c, t, r: c["scheduling.requests"]),
    "scheduling.grant_frac": ("ratio", lambda c, t, r: _frac(
        c["scheduling.granted"], c["scheduling.requests"])),
    "network.epr.samples": ("count", lambda c, t, r: c["network.epr.samples"]),
    "network.epr.success_frac": ("ratio", lambda c, t, r: _frac(
        c["network.epr.successes"], c["network.epr.samples"])),
    "multitenant.trace.read.records": ("count", lambda c, t, r: c["trace.records"]),
    "multitenant.checkpoint.write.snapshots": (
        "count", lambda c, t, r: c["checkpoint.snapshots"]),
    "multitenant.checkpoint.write.bytes": (
        "count", lambda c, t, r: c["checkpoint.bytes"]),
}


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _run_leg(args, deadline: float, until: float = 0.0, traced=False) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--trace-seed", str(args.trace_seed),
        "--sim-seed", str(args.sim_seed),
        "--until", repr(until),
    ]
    if traced:
        command.append("--traced")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(
            f"{args.workload} leg exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(name: str, values, unit: str) -> float:
    value = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"quartiles {q1:.6g}..{q3:.6g}"
    else:
        spread = "one sample"
    print(f"  {name:<20} {value:12.6g} {unit:<9} "
          f"(median of {len(values)}, {spread})")
    return value


def _end_to_end(legs, replays) -> dict:
    first = replays[0]
    samples = {
        "jobs_per_ref": [
            r["jobs"] * r["reference_s"] / r["replay_s"] for r in replays
        ],
        "setup_s": [leg["setup_s"] for leg in legs],
        "peak_rss_mb": [leg["peak_rss_mb"] for leg in legs],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if name in samples:
            value = _summary(name, samples[name], unit)
        else:
            value = (first["completed"] / first["submitted"]
                     if name == "completed_frac" else first[name])
            print(f"  {name:<20} {value:12.6g} {unit:<9} (exact for the seeds)")
        metrics[name] = {"value": value, "unit": unit}
    _summary("jobs_per_s", [r["jobs"] / r["replay_s"] for r in replays],
             "jobs/s")
    drop = 1 - first["completed"] / first["submitted"]
    print(f"  {'drop_frac':<20} {drop:12.6g} ratio     (not completed / submitted)")
    if "paper_remote_ops_err" in first:
        print(f"  {'paper_remote_ops_err':<20} {first['paper_remote_ops_err']:12.6g}"
              " ratio     (CloudQC remote ops vs the paper's Table III)")
    return metrics


def _per_layer(leg) -> dict:
    _warm_up, before, traced, after = leg["replays"]
    trace = leg["trace"]
    metrics = {}
    for span, row in trace["layers"].items():
        metrics[f"{span}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{span}.s"] = {"value": row["s"], "unit": "s"}
        metrics[f"{span}.self_s"] = {"value": row["self_s"], "unit": "s"}
    counters = Counter(trace["counters"])
    for name, (unit, measure) in _COUNTED.items():
        metrics[name] = {"value": measure(counters, trace, traced), "unit": unit}
    wall = traced["replay_s"]
    untraced = (before["replay_s"] + after["replay_s"]) / 2
    metrics["jobs_per_s"] = {"value": before["jobs"] / untraced, "unit": "jobs/s"}
    # In reference units, so the host's speed drift cancels.
    untraced_ref = statistics.mean(
        r["replay_s"] / r["reference_s"] for r in (before, after))
    metrics["trace_overhead_frac"] = {
        "value": wall / traced["reference_s"] / untraced_ref - 1.0,
        "unit": "ratio"}
    metrics["unattributed_frac"] = {
        "value": (wall - trace["top_level_s"]) / wall, "unit": "ratio"}
    print(f"  traced replay {wall:.3f}s, untraced {untraced:.3f}s, "
          f"{trace['spans']} spans")
    print(f"  {'layer':<34} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%':>6}")
    for span, row in sorted(trace["layers"].items(),
                            key=lambda item: -item[1]["self_s"]):
        if row["calls"]:
            print(f"  {span:<34} {row['calls']:9d} {row['s']:9.3f} "
                  f"{row['self_s']:9.3f} {100 * row['self_s'] / wall:6.1f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="default for the trace and the simulation seed")
    parser.add_argument("--trace-seed", type=int,
                        help="seed of the generated input (default: --seed; "
                             "7, the paper's cloud, on paper-fig22)")
    parser.add_argument("--sim-seed", type=int,
                        help="seed of the simulator's RNG (default: --seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace_seed is None:
        args.trace_seed = DEFAULT_TRACE_SEED.get(args.workload, args.seed)
    args.sim_seed = args.seed if args.sim_seed is None else args.sim_seed

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    print(f"{args.workload}: trace seed {args.trace_seed}, "
          f"sim seed {args.sim_seed}, trace {args.trace}")
    try:
        if args.trace:
            legs = [_run_leg(args, deadline, traced=True)]
        else:
            # Leg i stops starting replays near the end of its third of the
            # run (wall-clock time, which the leg processes share).
            begin = time.time()
            legs = [
                _run_leg(args, deadline, until=begin + args.seconds * (i + 1) / LEGS)
                for i in range(LEGS)
            ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    replays = [replay for leg in legs for replay in leg["replays"]]
    problems = [problem for replay in replays for problem in replay["problems"]]
    if len({replay["digest"] for replay in replays}) != 1:
        problems.append("result digests differ between replays of the same seeds")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    metrics = _per_layer(legs[0]) if args.trace else _end_to_end(legs, replays)
    attempted = sum(replay["submitted"] for replay in replays)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
