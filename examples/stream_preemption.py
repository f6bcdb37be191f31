#!/usr/bin/env python3
"""Deadline-rescue preemption cutting expired-job counts under overload.

Replays an *anchor-and-burst* stream
(:func:`~repro.multitenant.generate_anchor_burst_trace`): every cycle, one
large "anchor" circuit pins most of the cloud's computing qubits for a long
stretch while a burst of small "filler" circuits arrives behind it.
Admission uses a queueing deadline, so in the paper's irrevocable-placement
model (the default ``NeverPreempt``) the fillers queue behind the anchor
until they expire.

:class:`~repro.multitenant.DeadlineRescue` flips the outcome: shortly before
a queued filler would expire, it evicts the cheapest victim -- the anchor --
frees its qubits, and the fillers run; the anchor resumes later, keeping its
banked EPR successes.

Both legs replay through the streaming :class:`~repro.multitenant.Telemetry`
sink (PR 6) with ``keep_results=False`` -- the table, including the
drop-aware p99 JCT, is read off the sink's online aggregates.  Pass
``--export FILE.jsonl`` to also write the structured event stream of the
deadline-rescue leg; ``scripts/bench_report.py --events FILE.jsonl``
rebuilds the same report from that file without re-simulating.

Run with::

    python examples/stream_preemption.py [cycles] [seed] [--export FILE.jsonl]

``cycles`` defaults to 4 (a couple of seconds); the scale benchmark in
``benchmarks/test_stream_preemption.py`` replays the full 5015-job trace.
"""

from __future__ import annotations

import argparse

from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    DeadlineRescue,
    MultiTenantSimulator,
    NeverPreempt,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    fifo_batch_manager,
    generate_anchor_burst_trace,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler

NUM_QPUS = 6
FILLERS_PER_CYCLE = 16
DEADLINE = 30.0
RESCUE_HORIZON = 5.0


def make_simulator(preemption_policy):
    cloud = QuantumCloud(
        CloudTopology.line(NUM_QPUS),
        computing_qubits_per_qpu=10,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )
    return MultiTenantSimulator(
        cloud,
        placement_algorithm=CloudQCPlacement(
            imbalance_factors=(0.05, 0.30), max_extra_parts=2
        ),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(max_delay=DEADLINE),
        preemption_policy=preemption_policy,
    )


def main(cycles: int, seed: int, export: str | None) -> None:
    if cycles < 1:
        raise SystemExit("cycles must be at least 1")
    trace = generate_anchor_burst_trace(
        cycles, FILLERS_PER_CYCLE, num_qpus=NUM_QPUS
    )
    print(
        f"trace: {len(trace)} jobs ({cycles} anchor/burst cycles), "
        f"queueing deadline {DEADLINE:.0f} CX-time units"
    )

    header = (
        f"{'policy':>16} {'done':>6} {'exp':>6} {'strand':>6} "
        f"{'evicts':>6} {'wasted':>8} {'p99 JCT*':>10}"
    )
    print("\n" + header)
    print("-" * len(header))
    for policy in [NeverPreempt(), DeadlineRescue(horizon=RESCUE_HORIZON)]:
        simulator = make_simulator(policy)
        # Bounded-memory replay: aggregates come straight off the sink; the
        # rescue leg optionally exports its structured event stream.
        rescue_leg = policy.name == DeadlineRescue.name
        with Telemetry(events=export if rescue_leg else None) as sink:
            simulator.run_stream(
                trace.circuits,
                trace.arrival_times,
                seed=seed,
                telemetry=sink,
                keep_results=False,
                tenants=trace.tenant_ids,
            )
        summary = StreamSummary.from_telemetry(sink)
        p99 = sink.drop_aware_jct_percentile(99)
        print(
            f"{policy.name:>16} {summary.completed:>6} {summary.expired:>6} "
            f"{summary.preemption.stranded:>6} "
            f"{summary.preemption.preemption_events:>6} "
            f"{summary.preemption.wasted_time:>8.1f} "
            f"{p99:>10.1f}"
        )
    print(
        "\n*drop-aware p99 JCT: expired jobs never complete, so their JCT "
        "counts as inf;\n exp = expired in the queue, strand = ended the run "
        "evicted, wasted = banked work of jobs that ended evicted or failed "
        "(CX-time units).\n Rows aggregated "
        "online by the Telemetry sink (keep_results=False)."
    )
    if export:
        print(
            f"\nwrote {export}; regenerate this report offline with:\n"
            f"  PYTHONPATH=src python scripts/bench_report.py --events {export}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cycles", type=int, nargs="?", default=4,
                        help="anchor/burst cycles (default 4)")
    parser.add_argument("seed", type=int, nargs="?", default=1,
                        help="simulation seed (default 1)")
    parser.add_argument("--export", metavar="FILE.jsonl", default=None,
                        help="write the rescue leg's telemetry event stream")
    cli_args = parser.parse_args()
    main(cli_args.cycles, cli_args.seed, cli_args.export)
