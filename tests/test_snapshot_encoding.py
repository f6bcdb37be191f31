"""Snapshot bytes do not depend on how finished jobs and results are encoded.

The simulator keeps each COMPLETED job and each recorded result as compact
json text, encoded once, and ``write_snapshot`` splices those texts into the
state it writes.  ``ref_capture_jobs`` and ``ref_capture_results`` below are
copies of the capture that kept them as dicts and encoded the whole state at
every snapshot.  A checkpointed ``keep_results=True`` chaos run, in which QPU
failures interrupt and requeue running jobs and queueing deadlines drop jobs
as FAILED, must write byte-identical snapshots either way.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List
from unittest import mock

import repro.cloud.job as job_module
import repro.multitenant.cluster_sim as cluster_sim
from repro.cloud import CloudTopology, JobStatus, QuantumCloud
from repro.multitenant import (
    ChaosSpec,
    CheckpointConfig,
    DeadlineRescue,
    FaultInjector,
    MultiTenantSimulator,
    QueueingDeadline,
    generate_anchor_burst_trace,
    generate_fleet_events,
    write_trace,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler


# ----------------------------------------------------------------------
# Reference: the dict capture (comments trimmed)
# ----------------------------------------------------------------------
def ref_capture_jobs(self) -> List[Dict[str, Any]]:
    cache = self._job_capture_cache
    captured = []
    for job in self.controller.jobs.values():
        entry = cache.get(job.job_id)
        if entry is None:
            entry = self._capture_job(job)
            if job.status is JobStatus.COMPLETED:
                cache[job.job_id] = entry
        captured.append(entry)
    return captured


def ref_capture_results(self) -> List[Dict[str, Any]]:
    captured = self._captured_results
    for result in self.results[len(captured):]:
        captured.append(self._capture_result(result))
    return list(captured)


# ----------------------------------------------------------------------
# The chaos run
# ----------------------------------------------------------------------
def make_simulator(topology: CloudTopology) -> MultiTenantSimulator:
    events = generate_fleet_events(
        ChaosSpec(
            duration=2000.0,
            failure_rate=0.004,
            drain_rate=0.001,
            calibration_rate=0.002,
        ),
        qpu_ids=topology.qpu_ids,
        seed=5,
    )
    return MultiTenantSimulator(
        QuantumCloud(topology, computing_qubits_per_qpu=10),
        CloudQCPlacement(),
        CloudQCScheduler(),
        admission_policy=QueueingDeadline(5.0),
        preemption_policy=DeadlineRescue(horizon=5.0),
        fault_injector=FaultInjector(events),
    )


def snapshots_of_run(directory: str, trace_path: str, topology: CloudTopology):
    """``(results, snapshot bytes in write order, jobs interrupted by failures)``."""
    snapshots: List[bytes] = []
    interrupted = []
    write = cluster_sim.write_snapshot
    fail_qpu = cluster_sim._EventDrivenBatch._fail_qpu

    def keep_bytes(path, fingerprint, state):
        size = write(path, fingerprint, state)
        with open(path, "rb") as handle:
            snapshots.append(handle.read())
        return size

    def count_interrupted(self, qpu_id, now):
        if qpu_id in self.cloud.qpus:
            interrupted.extend(self.controller.jobs_on(qpu_id))
        return fail_qpu(self, qpu_id, now)

    job_module.set_job_counter(0)
    with mock.patch.object(cluster_sim, "write_snapshot", keep_bytes), mock.patch.object(
        cluster_sim._EventDrivenBatch, "_fail_qpu", count_interrupted
    ):
        results = make_simulator(topology).run_stream(
            trace=trace_path,
            seed=9,
            keep_results=True,
            checkpoint=CheckpointConfig(
                path=os.path.join(directory, "snap.json"), every_jobs=4
            ),
        )
    return [repr(sorted(r.__dict__.items())) for r in results], snapshots, interrupted


def test_snapshots_match_the_dict_capture_byte_for_byte(tmp_path):
    topology = CloudTopology.random(num_qpus=4, edge_probability=0.6, seed=2)
    trace_path = str(tmp_path / "trace.jsonl")
    write_trace(
        trace_path,
        generate_anchor_burst_trace(
            8, 5, num_qpus=4, anchor="ghz_n24", filler="ghz_n5"
        ).iter_records(),
    )
    results, snapshots, interrupted = snapshots_of_run(
        str(tmp_path), trace_path, topology
    )
    with mock.patch.object(
        cluster_sim._EventDrivenBatch, "_capture_jobs", ref_capture_jobs
    ), mock.patch.object(
        cluster_sim._EventDrivenBatch, "_capture_results", ref_capture_results
    ):
        ref_results, ref_snapshots, _ = snapshots_of_run(
            str(tmp_path), trace_path, topology
        )

    assert results == ref_results
    assert len(snapshots) == len(ref_snapshots) > 1
    for index, (snapshot, expected) in enumerate(zip(snapshots, ref_snapshots)):
        assert snapshot == expected, f"snapshot {index} differs"

    # The run exercises what the text cache must get right: a QPU failure
    # interrupts running jobs (they are requeued), and jobs dropped as
    # FAILED sit next to COMPLETED ones in a snapshot's job table.
    assert interrupted
    statuses = {
        job["status"]
        for snapshot in snapshots
        for job in json.loads(snapshot)["state"]["jobs"]
    }
    assert {"completed", "failed"} <= statuses
