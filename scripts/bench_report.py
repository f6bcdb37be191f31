#!/usr/bin/env python
"""Run a perf benchmark and emit its ``BENCH_<n>.json`` artifact.

``--bench 4`` (the default) measures the incremental-placement fast path
(PR 4) by driving the same workload builders as
``benchmarks/test_placement_hotpath.py``:

* cold vs. warm single-attempt cost (attempts/sec) and the warm-cache hit
  rate of the :class:`~repro.placement.PlacementContext`;
* busy-cloud replay wall time with the fast path on and off, and the
  resulting speedup.

``--bench 5`` measures the preemption subsystem (PR 5) on the overloaded
anchor/burst trace of ``benchmarks/test_stream_preemption.py``:

* deadline-rescue vs. never-preempt: expired-job count and the drop-aware
  p99 JCT (expired jobs count as an unbounded completion time);
* the cost of the machinery when disabled (two never-preempt runs; the
  disabled path is structurally one branch per decision point, so the
  measured delta bounds the overhead by timing noise) and when enabled but
  inert (a no-op policy that builds the decision view every tick).

``--bench 6`` measures the bounded-memory telemetry subsystem (PR 6) by
driving ``benchmarks/test_stream_telemetry.py``: a 100k-job cluster-trace
replay with ``keep_results=False`` and a :class:`Telemetry` sink, recording
peak/end tracemalloc against the pinned budget and checking the sketch
p50/p95/p99 against exact percentiles from a retained replay of the same
trace.  The exit code enforces both the memory budget and the GK rank-error
tolerance.

``--bench 7`` measures the lazy trace-replay path (PR 7) by driving
``benchmarks/test_stream_trace.py``: the BENCH_6 cluster trace is written
to disk as a ``repro-trace`` jsonl file and replayed through
``run_stream(trace=...)`` with ``keep_results=False`` at a 100k-job
baseline scale and at the full million-job scale.  The exit code enforces
the peak-memory budget, the job-count-independence ratio between the two
lazy legs, that the in-memory leg peaks at most a small amount per job above
the lazy one, and bit-identical telemetry summaries between the lazy and
in-memory legs at the baseline scale.

``--bench 8`` measures the fleet-dynamics subsystem (PR 8) by driving
``benchmarks/test_fleet_chaos.py``: the anchor/burst trace is replayed
through a scripted failure/drain/calibration storm under ``NeverPreempt``
(tail unbounded) and ``DeadlineRescue`` (tail bounded), plus a fault-free
leg that pins an attached-but-empty :class:`FaultInjector` as bit-identical
to no injector at all.  The exit code enforces the bit-identity, that the
storm actually unbounds the never-preempt tail, and that the rescue leg's
drop-aware p99 JCT stays within the SLO factor of the fault-free replay.

``--bench 9`` measures the checkpoint/restore subsystem (PR 9) by driving
``benchmarks/test_checkpoint_overhead.py``: the BENCH_8 anchor/burst storm
replay is run plain and with ``checkpoint=CheckpointConfig(every_jobs=...)``
(interleaved, best-of-3), then resumed from its last periodic snapshot.
The exit code enforces the wall-clock overhead budget (5% at the
``--full`` acceptance cadence; the seconds-long CI smoke trace is
dominated by the fixed per-snapshot fsync floor, so it is held to a looser
sanity bound) and bit-identity of both the checkpointed run and the
resumed tail; the report records the snapshot size and cadence.

``--events FILE.jsonl`` regenerates a stream report offline from an
exported telemetry event stream -- no simulation at all; the sink is rebuilt
with :meth:`Telemetry.from_events` and printed/written as a summary report.

Usage::

    PYTHONPATH=src python scripts/bench_report.py                  # BENCH_4, CI scale
    PYTHONPATH=src python scripts/bench_report.py --bench 5        # BENCH_5, CI scale
    PYTHONPATH=src python scripts/bench_report.py --bench 5 --full # 5015-job replay
    PYTHONPATH=src python scripts/bench_report.py --bench 6        # BENCH_6, 100k jobs
    PYTHONPATH=src python scripts/bench_report.py --bench 6 --jobs 5000
    PYTHONPATH=src python scripts/bench_report.py --bench 7        # BENCH_7, 1M jobs
    PYTHONPATH=src python scripts/bench_report.py --bench 7 --jobs 60000 --baseline-jobs 20000
    PYTHONPATH=src python scripts/bench_report.py --bench 8        # BENCH_8, CI scale
    PYTHONPATH=src python scripts/bench_report.py --bench 8 --full # 5015-job storm
    PYTHONPATH=src python scripts/bench_report.py --bench 9        # BENCH_9, CI scale
    PYTHONPATH=src python scripts/bench_report.py --bench 9 --full # 5015 jobs, every 500
    PYTHONPATH=src python scripts/bench_report.py --events run.jsonl

The default scale is the CI perf-smoke trace (a handful of anchor/burst
cycles); ``--full`` restores the acceptance-scale multi-thousand-job replay.
``--bench 6`` defaults to its acceptance scale (100k jobs) since the memory
bound is the artifact's whole point; ``--jobs`` reduces it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits.library import get_circuit  # noqa: E402
from repro.multitenant import (  # noqa: E402
    NeverPreempt,
    StreamSummary,
    drop_aware_jct_percentile,
)
from repro.placement import CloudQCPlacement, PlacementContext  # noqa: E402


def _load_benchmark_module(filename: str, name: str):
    """Import a benchmark module so script and pytest share one workload."""
    path = REPO_ROOT / "benchmarks" / filename
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_hotpath_module():
    return _load_benchmark_module("test_placement_hotpath.py", "placement_hotpath")


def _load_preemption_module():
    return _load_benchmark_module("test_stream_preemption.py", "stream_preemption")


def _load_telemetry_module():
    return _load_benchmark_module("test_stream_telemetry.py", "stream_telemetry")


def _load_trace_module():
    return _load_benchmark_module("test_stream_trace.py", "stream_trace")


def _load_chaos_module():
    return _load_benchmark_module("test_fleet_chaos.py", "fleet_chaos")


def _load_checkpoint_module():
    return _load_benchmark_module(
        "test_checkpoint_overhead.py", "checkpoint_overhead"
    )


def measure_attempt_cost(hotpath, rounds: int) -> dict:
    """Cold vs. warm cost of one CloudQC attempt on an unchanged cloud."""
    cloud = hotpath.make_cloud()
    circuit = get_circuit("ghz_n24")
    kwargs = hotpath.PLACEMENT_KWARGS
    algorithm = CloudQCPlacement(**kwargs)
    context = PlacementContext()

    start = time.perf_counter()
    for _ in range(rounds):
        CloudQCPlacement(**kwargs).place(circuit, cloud, seed=11)
    cold_time = time.perf_counter() - start

    reference = algorithm.place(circuit, cloud, seed=11, context=context)
    start = time.perf_counter()
    for _ in range(rounds):
        warm = algorithm.place(circuit, cloud, seed=11, context=context)
        assert warm.mapping == reference.mapping
    warm_time = time.perf_counter() - start

    return {
        "rounds": rounds,
        "cold_attempt_ms": 1e3 * cold_time / rounds,
        "warm_attempt_ms": 1e3 * warm_time / rounds,
        "cold_attempts_per_sec": rounds / cold_time,
        "warm_attempts_per_sec": rounds / warm_time,
        "warm_speedup": cold_time / warm_time,
        "warm_hit_rate": context.hit_rate,
        "context_stats": context.stats(),
    }


def measure_replay(hotpath, cycles: int, fillers: int) -> dict:
    """Busy-cloud replay wall time with the fast path on and off."""
    incremental_results, incremental_time = hotpath.run_replay(True, cycles, fillers)
    baseline_results, baseline_time = hotpath.run_replay(False, cycles, fillers)
    identical = [hotpath.result_key(r) for r in incremental_results] == [
        hotpath.result_key(r) for r in baseline_results
    ]
    num_jobs = cycles * (1 + fillers)
    return {
        "num_jobs": num_jobs,
        "cycles": cycles,
        "fillers_per_cycle": fillers,
        "incremental_seconds": incremental_time,
        "from_scratch_seconds": baseline_time,
        "replay_speedup": baseline_time / incremental_time,
        "incremental_jobs_per_sec": num_jobs / incremental_time,
        "bit_identical": identical,
    }


def _jsonable(value: float) -> object:
    """inf does not survive strict JSON; encode it explicitly."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _preemption_leg(module, policy, cycles: int, fillers: int) -> dict:
    results, seconds = module.run_replay(policy, cycles, fillers)
    summary = StreamSummary.from_results(results)
    return {
        "policy": policy.name,
        "seconds": seconds,
        "completed": summary.completed,
        "expired": summary.expired,
        "stranded": summary.preemption.stranded,
        "preemption_events": summary.preemption.preemption_events,
        "wasted_time": summary.preemption.wasted_time,
        "p99_jct_drop_aware": _jsonable(drop_aware_jct_percentile(results, 99)),
        "p99_jct_completed": summary.completion.p99,
    }


def measure_preemption(module, cycles: int, fillers: int) -> dict:
    """Deadline-rescue impact + the cost of the machinery when off/inert."""
    # Throwaway warm-up so one-time costs (circuit-library cache, imports)
    # are not charged to the first timed leg -- otherwise both overhead
    # deltas compare a cold run against warm ones and come out deflated.
    module.run_replay(NeverPreempt(), min(2, cycles), fillers)
    # Two identical disabled runs: the second prices the "preemption-off"
    # overhead against the PR-4 code path (which golden tests pin as the
    # bit-identical twin of the NeverPreempt configuration), bounded by
    # timing noise since the disabled stage is one branch per decision point.
    baseline = _preemption_leg(module, NeverPreempt(), cycles, fillers)
    repeat = _preemption_leg(module, NeverPreempt(), cycles, fillers)
    # The benchmark module's own enabled-but-inert policy, so the script
    # and the pytest assertion price the exact same hook.
    noop = _preemption_leg(module, module._EnabledNoOp(), cycles, fillers)
    rescue = _preemption_leg(
        module, module.DeadlineRescue(horizon=module.RESCUE_HORIZON),
        cycles, fillers,
    )
    overhead_disabled_pct = 100.0 * (
        repeat["seconds"] - baseline["seconds"]
    ) / baseline["seconds"]
    overhead_enabled_noop_pct = 100.0 * (
        noop["seconds"] - baseline["seconds"]
    ) / baseline["seconds"]
    baseline_p99 = baseline["p99_jct_drop_aware"]
    rescue_p99 = rescue["p99_jct_drop_aware"]
    if rescue_p99 == "inf":
        p99_reduced = False
    elif baseline_p99 == "inf":
        p99_reduced = True
    else:
        p99_reduced = rescue_p99 < baseline_p99
    return {
        "num_jobs": cycles * (1 + fillers),
        "cycles": cycles,
        "fillers_per_cycle": fillers,
        "queueing_deadline": module.DEADLINE,
        "rescue_horizon": module.RESCUE_HORIZON,
        "never_preempt": baseline,
        "never_preempt_repeat": repeat,
        "enabled_noop": noop,
        "deadline_rescue": rescue,
        "overhead_disabled_pct": overhead_disabled_pct,
        "overhead_enabled_noop_pct": overhead_enabled_noop_pct,
        "expired_jobs_saved": baseline["expired"] - rescue["expired"],
        "p99_reduced": p99_reduced,
    }


def run_bench4(args) -> tuple[dict, bool]:
    hotpath = _load_hotpath_module()
    cycles = args.cycles or (hotpath.CYCLES if args.full else 12)
    fillers = args.fillers or hotpath.FILLERS_PER_CYCLE
    report = {
        "benchmark": "placement-hotpath",
        "python": platform.python_version(),
        "attempt_cost": measure_attempt_cost(hotpath, args.rounds),
        "replay": measure_replay(hotpath, cycles, fillers),
    }
    attempt = report["attempt_cost"]
    replay = report["replay"]
    print(
        f"attempt cost: cold={attempt['cold_attempt_ms']:.2f}ms "
        f"warm={attempt['warm_attempt_ms']:.3f}ms "
        f"({attempt['warm_attempts_per_sec']:.0f} warm attempts/sec, "
        f"hit rate {attempt['warm_hit_rate']:.2f})"
    )
    print(
        f"replay ({replay['num_jobs']} jobs): "
        f"incremental={replay['incremental_seconds']:.1f}s "
        f"from-scratch={replay['from_scratch_seconds']:.1f}s "
        f"speedup={replay['replay_speedup']:.1f}x "
        f"bit-identical={replay['bit_identical']}"
    )
    if not replay["bit_identical"]:
        print("ERROR: fast-path replay diverged from the from-scratch replay")
        return report, False
    return report, True


def run_bench5(args) -> tuple[dict, bool]:
    module = _load_preemption_module()
    cycles = args.cycles or (module.CYCLES if args.full else 20)
    fillers = args.fillers or module.FILLERS_PER_CYCLE
    report = {
        "benchmark": "stream-preemption",
        "python": platform.python_version(),
        "preemption": measure_preemption(module, cycles, fillers),
    }
    data = report["preemption"]
    base, rescue = data["never_preempt"], data["deadline_rescue"]
    print(
        f"never-preempt  ({data['num_jobs']} jobs): {base['seconds']:.1f}s "
        f"expired={base['expired']} p99*={base['p99_jct_drop_aware']}"
    )
    print(
        f"deadline-rescue: {rescue['seconds']:.1f}s expired={rescue['expired']} "
        f"evictions={rescue['preemption_events']} "
        f"p99*={rescue['p99_jct_drop_aware']}"
    )
    print(
        f"overhead: disabled={data['overhead_disabled_pct']:+.1f}% "
        f"(noise bound) enabled-noop={data['overhead_enabled_noop_pct']:+.1f}%"
    )
    ok = rescue["expired"] < base["expired"] and data["p99_reduced"]
    if not ok:
        print("ERROR: deadline-rescue failed to improve the overloaded trace")
    return report, ok


def run_bench6(args) -> tuple[dict, bool]:
    module = _load_telemetry_module()
    num_jobs = args.jobs or module.NUM_JOBS
    report = module.build_report(num_jobs=num_jobs)
    report = {
        "benchmark": "stream-telemetry",
        "python": platform.python_version(),
        **report,
    }
    bounded, retained = report["bounded_leg"], report["retained_leg"]
    print(
        f"bounded  ({num_jobs} jobs, keep_results=False): "
        f"{bounded['seconds']:.1f}s peak={bounded['peak_tracemalloc_mb']:.1f}MB "
        f"end={bounded['end_tracemalloc_mb']:.2f}MB "
        f"(budget {report['memory_budget_mb']:.0f}MB: "
        f"{'ok' if bounded['within_budget'] else 'EXCEEDED'})"
    )
    print(
        f"retained (keep_results=True):  {retained['seconds']:.1f}s "
        f"peak={retained['peak_tracemalloc_mb']:.1f}MB "
        f"end={retained['end_tracemalloc_mb']:.2f}MB "
        f"({report['retained_end_over_bounded_end']:.1f}x the bounded end-state)"
    )
    for key in ("queueing_delay", "jct"):
        leg = report[key]
        errors = " ".join(
            f"{p}={leg['rank_errors'][p]:.5f}" for p in ("p50", "p95", "p99")
        )
        print(
            f"{key}: rank errors {errors} "
            f"(bound {leg['rank_error_bound']:.5f}, "
            f"{'ok' if leg['within_bound'] else 'EXCEEDED'}; "
            f"{leg['sketch_tuples']} sketch tuples)"
        )
    if not report["ok"]:
        print("ERROR: memory budget or sketch tolerance violated")
    return report, report["ok"]


def run_bench7(args) -> tuple[dict, bool]:
    module = _load_trace_module()
    num_jobs = args.jobs or module.NUM_JOBS
    baseline_jobs = args.baseline_jobs or module.BASELINE_JOBS
    report = module.build_report(num_jobs=num_jobs, baseline_jobs=baseline_jobs)
    report = {
        "benchmark": "stream-trace",
        "python": platform.python_version(),
        **report,
    }
    lazy_base, lazy_full = report["lazy_baseline"], report["lazy_full"]
    in_memory = report["in_memory_baseline"]
    print(
        f"lazy    ({lazy_full['jobs']} jobs from disk): "
        f"{lazy_full['seconds']:.1f}s "
        f"({lazy_full['jobs_per_sec']:.0f} jobs/s) "
        f"peak={lazy_full['peak_tracemalloc_mb']:.2f}MB "
        f"(budget {report['memory_budget_mb']:.0f}MB: "
        f"{'ok' if lazy_full['peak_tracemalloc_mb'] <= report['memory_budget_mb'] else 'EXCEEDED'})"
    )
    print(
        f"lazy    ({lazy_base['jobs']} jobs from disk): "
        f"{lazy_base['seconds']:.1f}s "
        f"({lazy_base['jobs_per_sec']:.0f} jobs/s) "
        f"peak={lazy_base['peak_tracemalloc_mb']:.2f}MB"
    )
    print(
        f"peak growth {lazy_full['jobs'] // lazy_base['jobs']}x jobs: "
        f"{report['peak_ratio_full_over_baseline']:.2f}x "
        f"(limit {report['peak_ratio_limit']:.1f}x + "
        f"{report['peak_slack_mb']:.1f}MB slack = "
        f"{report['peak_growth_limit_mb']:.2f}MB: "
        f"{'ok' if report['within_growth_limit'] else 'EXCEEDED'})"
    )
    print(
        f"in-memory ({in_memory['jobs']} jobs): "
        f"{in_memory['seconds']:.1f}s "
        f"peak={in_memory['peak_tracemalloc_mb']:.2f}MB "
        f"({report['in_memory_excess_kib_per_job']:+.3f} KiB/job over the "
        f"lazy peak, limit {report['in_memory_excess_limit_kib_per_job']:.2f}: "
        f"{'ok' if report['within_in_memory_excess'] else 'EXCEEDED'}); "
        f"summaries bit-identical={report['summaries_match']}"
    )
    if not report["ok"]:
        print(
            "ERROR: memory budget, peak ratio, in-memory excess, or "
            "lazy/in-memory equivalence violated"
        )
    return report, report["ok"]


def run_bench8(args) -> tuple[dict, bool]:
    module = _load_chaos_module()
    cycles = args.cycles or (module.CYCLES if args.full else 20)
    fillers = args.fillers or module.FILLERS_PER_CYCLE
    report = module.build_report(cycles, fillers)
    report = {
        "benchmark": "fleet-chaos",
        "python": platform.python_version(),
        **report,
    }
    never = report["chaos_never_preempt"]
    rescue = report["chaos_deadline_rescue"]
    fleet = report["fleet_telemetry"]
    print(
        f"fault-free rescue ({report['num_jobs']} jobs): "
        f"{report['fault_free_rescue']['seconds']:.1f}s "
        f"p99*={report['fault_free_rescue']['p99_jct_drop_aware']} "
        f"empty-injector bit-identical={report['bit_identical']}"
    )
    print(
        f"chaos never-preempt: {never['seconds']:.1f}s "
        f"completed={never['completed']} expired={never['expired']} "
        f"p99*={never['p99_jct_drop_aware']}"
    )
    print(
        f"chaos deadline-rescue: {rescue['seconds']:.1f}s "
        f"completed={rescue['completed']} expired={rescue['expired']} "
        f"failed={rescue['failed']} p99*={rescue['p99_jct_drop_aware']} "
        f"(SLO: <= {report['slo_factor']}x fault-free: "
        f"{'ok' if report['within_slo'] else 'EXCEEDED'})"
    )
    print(
        f"storm: {report['storm']['events']} events, "
        f"fails={fleet['events']['qpu_fail']} "
        f"drains={fleet['events']['qpu_drain']} "
        f"calibrations={fleet['events']['calibration_start']} "
        f"interrupted={fleet['interrupted_jobs']} "
        f"availability={fleet['qpu_availability']}"
    )
    if not report["ok"]:
        print(
            "ERROR: bit-identity, storm impact, or chaos SLO violated"
        )
    return report, report["ok"]


def run_bench9(args) -> tuple[dict, bool]:
    module = _load_checkpoint_module()
    cycles = args.cycles or (module.CYCLES if args.full else 20)
    fillers = args.fillers or module.FILLERS_PER_CYCLE
    # The acceptance cadence is one snapshot per 500 finished jobs; the CI
    # smoke trace is shorter than that, so scale the cadence to keep the
    # same snapshot density (~10 per run) unless overridden.
    num_jobs = cycles * (1 + fillers)
    every_jobs = args.every_jobs or (
        module.EVERY_JOBS if args.full else max(1, num_jobs // 10)
    )
    # The 5% budget is an amortized claim -- the fixed per-snapshot fsync
    # floor only washes out on the 30s+ acceptance replay, so the smoke
    # trace is held to a sanity bound instead (see SMOKE_OVERHEAD_BUDGET).
    budget = module.OVERHEAD_BUDGET if args.full else module.SMOKE_OVERHEAD_BUDGET
    report = module.build_report(
        cycles, fillers, every_jobs=every_jobs, overhead_budget=budget
    )
    report = {
        "benchmark": "checkpoint-resume",
        "python": platform.python_version(),
        **report,
    }
    print(
        f"plain ({report['num_jobs']} jobs): {report['plain_seconds']:.2f}s; "
        f"checkpointed (every {report['every_jobs']} jobs): "
        f"{report['checkpointed_seconds']:.2f}s "
        f"({report['overhead_fraction'] * 100:+.1f}%, budget "
        f"{report['overhead_budget'] * 100:.0f}%: "
        f"{'ok' if report['within_budget'] else 'EXCEEDED'})"
    )
    print(
        f"snapshots: {report['snapshots_per_run']} per run, "
        f"{report['snapshot_bytes']} bytes each; resume replayed the tail "
        f"in {report['resume_seconds']:.2f}s "
        f"(bit-identical={report['bit_identical']}, "
        f"resume-identical={report['resume_identical']})"
    )
    if not report["ok"]:
        print("ERROR: overhead budget or bit-identity violated")
    return report, report["ok"]


def run_events_report(args) -> tuple[dict, bool]:
    """Rebuild a summary offline from an exported jsonl event stream."""
    from dataclasses import asdict

    from repro.multitenant import Telemetry

    sink = Telemetry.from_events(args.events)
    summary = sink.summary()
    report = {
        "benchmark": "events-replay",
        "source": args.events,
        "summary": asdict(summary),
        "outcome_counts": sink.outcome_counts,
        "max_queue_depth": sink.max_queue_depth,
        "preemption_events": sink.preemption_events,
        "migration_events": sink.migration_events,
        "tenants": len(sink.tenant_counts),
    }
    print(
        f"{args.events}: total={summary.total} completed={summary.completed} "
        f"rejected={summary.rejected} expired={summary.expired} "
        f"rejection_rate={summary.rejection_rate:.3f}"
    )
    print(
        f"queueing delay p50/p95/p99={summary.queueing.p50:.1f}/"
        f"{summary.queueing.p95:.1f}/{summary.queueing.p99:.1f} "
        f"max queue={summary.max_queue_depth}"
    )
    print(
        f"JCT mean={summary.completion.mean:.1f} "
        f"median={summary.completion.median:.1f} "
        f"p99={summary.completion.p99:.1f}"
    )
    return report, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", type=int, choices=(4, 5, 6, 7, 8, 9), default=4,
        help="which BENCH_<n>.json to produce "
        "(4=placement, 5=preemption, 6=telemetry, 7=trace-replay, "
        "8=fleet-chaos, 9=checkpoint-resume)",
    )
    parser.add_argument("--cycles", type=int, default=None, help="anchor/burst cycles")
    parser.add_argument("--fillers", type=int, default=None, help="fillers per cycle")
    parser.add_argument("--rounds", type=int, default=25, help="attempt-cost rounds")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="bench 6/7 trace length (default: the 100k / 1M acceptance scale)",
    )
    parser.add_argument(
        "--baseline-jobs", type=int, default=None,
        help="bench 7 baseline trace length for the peak-ratio check "
        "(default: the 100k acceptance scale)",
    )
    parser.add_argument(
        "--every-jobs", type=int, default=None,
        help="bench 9 snapshot cadence (default: 500 at --full, scaled to "
        "~10 snapshots per run at the CI smoke scale)",
    )
    parser.add_argument(
        "--events", default=None, metavar="FILE.jsonl",
        help="rebuild a stream report offline from an exported telemetry "
        "event stream instead of running a benchmark",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="acceptance scale (the multi-thousand-job replay) instead of "
        "the CI smoke scale",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args(argv)

    if args.events is not None:
        report, ok = run_events_report(args)
        default_out = "EVENTS_REPORT.json"
    elif args.bench == 4:
        report, ok = run_bench4(args)
        default_out = "BENCH_4.json"
    elif args.bench == 5:
        report, ok = run_bench5(args)
        default_out = "BENCH_5.json"
    elif args.bench == 6:
        report, ok = run_bench6(args)
        default_out = "BENCH_6.json"
    elif args.bench == 7:
        report, ok = run_bench7(args)
        default_out = "BENCH_7.json"
    elif args.bench == 8:
        report, ok = run_bench8(args)
        default_out = "BENCH_8.json"
    else:
        report, ok = run_bench9(args)
        default_out = "BENCH_9.json"
    out = pathlib.Path(args.out or default_out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
