#!/usr/bin/env python3
"""Record a submission trace to disk, then lazily replay it.

Demonstrates the trace-ingestion path (PR 7; see docs/architecture.md,
"Trace ingestion & replay"):

1. generate a synthetic cluster trace with
   :func:`~repro.multitenant.generate_cluster_trace` and write it as a
   versioned ``repro-trace`` jsonl file (self-describing and strictly
   validated on read);
2. show the on-disk shape: the schema header plus one line per arrival;
3. replay the file with ``run_stream(trace=path)`` and
   ``keep_results=False`` -- records are decoded one at a time and each job
   is minted *at its arrival instant* by a pending-arrival cursor, so peak
   memory tracks the in-flight population, never the trace length.  A
   million-job file replays in the same footprint as this toy one
   (``benchmarks/test_stream_trace.py`` pins that claim).

The replay is bit-identical to submitting the same circuits and arrival
times up front: same seeds, same schedule, same telemetry event stream
(``tests/test_trace_replay.py`` pins that equivalence across all four
network schedulers).

Run with::

    python examples/replay_trace.py [num_jobs]

``num_jobs`` defaults to 400 (a few seconds).  The trace has one encoding,
so there is no format argument.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    MultiTenantSimulator,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    fifo_batch_manager,
    generate_cluster_trace,
)
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler

#: Single-QPU-sized circuits keep placement fast at trace scale.
POOL = ["ghz_n4", "ghz_n6", "ghz_n8", "ghz_n12", "ghz_n16"]


def main(num_jobs: int) -> None:
    if num_jobs < 1:
        raise SystemExit("num_jobs must be at least 1")

    # 1. Record: generate a synthetic submission trace and write it out.
    trace = generate_cluster_trace(
        num_jobs,
        num_tenants=max(2, num_jobs // 3),
        base_rate=0.25,
        diurnal_amplitude=0.6,
        diurnal_period=5000.0,
        seed=3,
        names=POOL,
    )
    with tempfile.TemporaryDirectory(prefix="replay-trace-") as tmp:
        path = Path(tmp) / "cluster.jsonl"
        count = trace.to_file(path)
        print(
            f"wrote {count} records ({path.stat().st_size} bytes) "
            f"to {path.name}"
        )

        # 2. The on-disk shape: a schema header, then one line per arrival.
        with open(path, encoding="utf-8") as stream:
            for line in [next(stream) for _ in range(4)]:
                print(f"  {line.rstrip()}")
        print("  ...")

        # 3. Replay lazily: jobs are minted at their arrival instants while
        # the file is streamed; with keep_results=False nothing scales with
        # the number of records.
        simulator = MultiTenantSimulator(
            QuantumCloud(
                CloudTopology.line(4),
                computing_qubits_per_qpu=16,
                communication_qubits_per_qpu=4,
                epr_success_probability=0.95,
            ),
            placement_algorithm=RandomPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            admission_policy=QueueingDeadline(max_delay=300.0),
        )
        sink = Telemetry()
        simulator.run_stream(seed=1, telemetry=sink, keep_results=False, trace=path)

    summary = StreamSummary.from_telemetry(sink)
    print(
        f"\nreplayed from disk: {summary.total} arrivals, "
        f"{summary.completed} completed, {summary.expired} expired"
    )
    print(
        f"queueing delay p50/p95/p99 = {summary.queueing.p50:.1f}/"
        f"{summary.queueing.p95:.1f}/{summary.queueing.p99:.1f} CX-time units, "
        f"max queue depth {summary.max_queue_depth}"
    )
    print(
        "\nThe replay never held the trace in memory: records were decoded "
        "one at a time\nand each job lived only from its arrival to its "
        "terminal outcome."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
