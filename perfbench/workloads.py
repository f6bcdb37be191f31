"""The four benchmark workloads: set-up, timed replays, output checks.

Every workload is an open loop in simulated time (arrivals come from the
trace, never from the simulator's progress), replayed at the input size
fixed below.  ``setup`` builds everything the replays need; ``prepare``
resets per-replay state outside the timed region; ``replay`` is the only
timed call; ``summarize`` checks the outputs and reduces them to the
simulated metrics plus a digest that must be identical for every replay of
the same seeds, traced or not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, List

import numpy as np

from repro.analysis import default_cloud, default_schedulers
from repro.circuits.library import get_circuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.cloud.job import set_job_counter
from repro.multitenant import (
    CalibrationWindow,
    CheckpointConfig,
    DeadlineRescue,
    FaultInjector,
    JobOutcome,
    MultiTenantSimulator,
    QueueingDeadline,
    Telemetry,
    fifo_batch_manager,
    generate_anchor_burst_trace,
    generate_cluster_trace,
    iter_events,
)
from repro.placement import CloudQCPlacement, RandomPlacement, validate_placement
from repro.scheduling import CloudQCScheduler
from repro.sim import NetworkExecutor

TERMINAL_EVENTS = ("completed", "rejected", "expired", "failed", "stranded")


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jct_stats(jcts: List[float]) -> Dict[str, float]:
    if not jcts:
        return {"sim_mean_jct": 0.0, "sim_p99_jct": 0.0}
    return {
        "sim_mean_jct": float(np.mean(jcts)),
        "sim_p99_jct": float(np.percentile(jcts, 99)),
    }


class Workload:
    """One workload; subclasses fill in set-up, replay and summary."""

    name = ""

    def __init__(self, trace_seed: int, sim_seed: int, work_dir: str) -> None:
        self.trace_seed = trace_seed
        self.sim_seed = sim_seed
        self.work_dir = work_dir

    def prepare(self) -> None:
        # Job ids come from a process-wide counter and scheduler tiebreaks
        # read them, so every replay starts the ids from zero.
        set_job_counter(0)


class _StreamWorkload(Workload):
    """A ``run_stream`` replay of an in-memory trace that keeps its results."""

    def replay(self):
        trace = self.trace
        return self.simulator.run_stream(
            trace.circuits,
            trace.arrival_times,
            seed=self.sim_seed,
            tenants=trace.tenant_ids,
        )

    def summarize(self, results) -> Dict[str, Any]:
        submitted = len(self.trace)
        problems = []
        ids = [result.job_id for result in results]
        if len(ids) != submitted or len(set(ids)) != submitted:
            problems.append(
                f"{len(set(ids))} distinct terminal outcomes for {submitted} jobs"
            )
        terminal = {outcome.value for outcome in JobOutcome}
        outcomes = [str(getattr(r.outcome, "value", r.outcome)) for r in results]
        if any(outcome not in terminal for outcome in outcomes):
            problems.append("a job ended without a terminal outcome")
        # A dropped job is one that left without completing and was given
        # the time it was dropped at.
        completed = [r for r in results if r.completed]
        dropped = [
            r for r in results if not r.completed and r.dropped_time is not None
        ]
        if len(completed) + len(dropped) != submitted:
            problems.append(
                f"{len(completed)} completed + {len(dropped)} dropped "
                f"!= {submitted} submitted"
            )
        jcts = [r.job_completion_time for r in completed]
        if any(not math.isfinite(jct) or jct < 0 for jct in jcts):
            problems.append("a completed job has no finite completion time")
        rows = [
            [
                r.job_id, r.circuit_name, repr(r.arrival_time),
                repr(r.placement_time), repr(r.completion_time), outcome,
                r.num_remote_operations, r.num_qpus_used, r.num_preemptions,
                r.num_migrations, repr(r.wasted_time),
            ]
            for r, outcome in zip(results, outcomes)
        ]
        return {
            "submitted": submitted,
            "jobs": len(results),
            "completed": len(completed),
            "digest": _digest(rows),
            "problems": problems,
            **_jct_stats(jcts),
        }


class AnchorBurst(_StreamWorkload):
    """BENCH_5: a 51-qubit anchor pins a 6-QPU line while 16 fillers queue."""

    name = "anchor-burst"
    cycles = 30
    fillers_per_cycle = 16

    def setup(self) -> None:
        # The anchor/burst trace has no RNG: only the simulation seed (the
        # per-attempt placement seeds) changes with the seed.
        self.trace = generate_anchor_burst_trace(
            self.cycles, self.fillers_per_cycle, num_qpus=6
        )
        cloud = QuantumCloud(
            CloudTopology.line(6),
            computing_qubits_per_qpu=10,
            communication_qubits_per_qpu=4,
            epr_success_probability=0.95,
        )
        self.simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=CloudQCPlacement(
                imbalance_factors=(0.05, 0.30), max_extra_parts=2
            ),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            admission_policy=QueueingDeadline(max_delay=30.0),
            preemption_policy=DeadlineRescue(horizon=5.0),
        )


class EprContention(_StreamWorkload):
    """Poisson stream of multi-QPU circuits competing for EPR pairs."""

    name = "epr-contention"
    jobs = 400
    rate = 0.0001
    #: Pareto tail of the circuit-size rank; a light tail keeps the mix
    #: (mostly qft_n16, some ising_n34) and so the work steady across seeds.
    size_tail = 4.0
    pool = ["qft_n16", "ising_n34", "qugan_n39", "qft_n29"]
    calibration_every = 2000.0
    calibration_duration = 1000.0
    calibration_epr = 0.1

    def setup(self) -> None:
        self.trace = generate_cluster_trace(
            self.jobs,
            num_tenants=50,
            base_rate=self.rate,
            diurnal_amplitude=0.0,
            size_tail=self.size_tail,
            seed=self.trace_seed,
            names=self.pool,
        )
        cloud = QuantumCloud(
            CloudTopology.grid(3, 3),
            computing_qubits_per_qpu=12,
            communication_qubits_per_qpu=4,
            epr_success_probability=0.3,
        )
        # Calibration windows only: README.md says why this workload has no
        # QPU failures or drains.
        windows = [
            CalibrationWindow(
                time=index * self.calibration_every,
                qpu_id=index % cloud.num_qpus,
                duration=self.calibration_duration,
                epr_success_probability=self.calibration_epr,
            )
            for index in range(
                int(self.trace.arrival_times[-1] // self.calibration_every) + 1
            )
        ]
        self.simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=RandomPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            admission_policy=QueueingDeadline(5000.0),
            fault_injector=FaultInjector(windows),
        )


class ClusterTrace(Workload):
    """BENCH_6's trace, replayed lazily from disk with telemetry and snapshots."""

    name = "cluster-trace"
    jobs = 10_000
    pool = ["ghz_n4", "ghz_n6", "ghz_n8", "ghz_n12", "ghz_n16"]
    snapshots = 4

    def setup(self) -> None:
        trace = generate_cluster_trace(
            self.jobs,
            num_tenants=2000,
            base_rate=0.25,
            diurnal_amplitude=0.6,
            diurnal_period=5000.0,
            seed=self.trace_seed,
            names=self.pool,
        )
        self.trace_path = os.path.join(self.work_dir, "trace.jsonl")
        self.submitted = trace.to_file(self.trace_path)
        cloud = QuantumCloud(
            CloudTopology.line(4),
            computing_qubits_per_qpu=16,
            communication_qubits_per_qpu=4,
            epr_success_probability=0.95,
        )
        self.simulator = MultiTenantSimulator(
            cloud,
            placement_algorithm=RandomPlacement(),
            network_scheduler=CloudQCScheduler(),
            batch_manager=fifo_batch_manager(),
            admission_policy=QueueingDeadline(300.0),
        )
        self.events_path = os.path.join(self.work_dir, "events.jsonl")
        self.checkpoint = CheckpointConfig(
            path=os.path.join(self.work_dir, "snapshot.json"),
            every_jobs=self.jobs // (self.snapshots + 1),
        )

    def prepare(self) -> None:
        super().prepare()
        if os.path.exists(self.checkpoint.path):
            os.remove(self.checkpoint.path)
        self.sink = Telemetry(events=self.events_path)

    def replay(self):
        self.simulator.run_stream(
            trace=self.trace_path,
            seed=self.sim_seed,
            telemetry=self.sink,
            keep_results=False,
            checkpoint=self.checkpoint,
        )
        self.sink.close()
        return self.sink

    def summarize(self, sink) -> Dict[str, Any]:
        submitted = self.submitted
        problems = []
        if sink.arrivals != submitted or sink.total != submitted:
            problems.append(
                f"{sink.arrivals} arrivals and {sink.total} terminal outcomes "
                f"for {submitted} jobs"
            )
        terminal_per_job: Dict[str, int] = {}
        for event in iter_events(self.events_path):
            if event["event"] == "job_arrived":
                terminal_per_job.setdefault(event["job"], 0)
            elif event["event"] in TERMINAL_EVENTS:
                job = event["job"]
                terminal_per_job[job] = terminal_per_job.get(job, 0) + 1
        if len(terminal_per_job) != submitted or any(
            count != 1 for count in terminal_per_job.values()
        ):
            problems.append("the event stream does not end every job exactly once")
        if not os.path.exists(self.checkpoint.path):
            problems.append("no checkpoint snapshot was written")
        with open(self.events_path, "rb") as handle:
            stream_digest = hashlib.sha256(handle.read()).hexdigest()
        return {
            "submitted": submitted,
            "jobs": sink.total,
            "completed": sink.completed,
            "digest": _digest([repr(sink.summary()), stream_digest]),
            "problems": problems,
            # GK-sketch estimates: a keep_results=False replay keeps no JCTs.
            "sim_mean_jct": float(sink.jct.mean) if sink.jct.count else 0.0,
            "sim_p99_jct": float(sink.jct.percentile(99)) if sink.jct.count else 0.0,
        }


class PaperFig22(Workload):
    """Fig. 22: cold CloudQC placement, then all four network schedulers."""

    name = "paper-fig22"
    circuits = [
        "knn_n129",
        "qugan_n111",
        "qft_n63",
        "vqe_uccsd_n28",
        "adder_n64",
        "adder_n118",
        "multiplier_n45",
    ]
    #: CloudQC's remote-operation counts in the paper's Table III, for the
    #: Fig. 22 circuits that appear there.
    paper_remote_ops = {
        "knn_n129": 220,
        "qugan_n111": 248,
        "qft_n63": 2358,
        "adder_n64": 33,
        "adder_n118": 37,
        "multiplier_n45": 462,
    }

    def setup(self) -> None:
        # The trace seed picks the random cloud topology; the paper's
        # evaluation cloud is seed 7.
        self.cloud = default_cloud(seed=self.trace_seed)
        self.built = [get_circuit(name) for name in self.circuits]
        self.executors = {
            label: NetworkExecutor(self.cloud, scheduler)
            for label, scheduler in default_schedulers().items()
        }

    def replay(self):
        rows = []
        for circuit in self.built:
            # A fresh placer and no shared context: every placement is cold.
            placement = CloudQCPlacement().place(
                circuit, self.cloud, seed=self.sim_seed
            )
            runs = {
                label: executor.execute_single(
                    circuit, placement.mapping, seed=self.sim_seed
                )
                for label, executor in self.executors.items()
            }
            rows.append((circuit, placement, runs))
        return rows

    def summarize(self, rows) -> Dict[str, Any]:
        problems, payload, jcts, errors = [], [], [], []
        for circuit, placement, runs in rows:
            try:
                validate_placement(placement, self.cloud)
            except ValueError as exc:
                problems.append(f"{circuit.name}: {exc}")
            remote_ops = placement.num_remote_operations()
            paper = self.paper_remote_ops.get(circuit.name)
            if paper is not None:
                errors.append(abs(remote_ops - paper) / paper)
            for label, result in sorted(runs.items()):
                jct = result.completion_time - result.start_time
                if not math.isfinite(jct) or jct < result.local_time:
                    problems.append(f"{circuit.name}/{label}: bad completion time")
                jcts.append(jct)
                payload.append([
                    circuit.name, label, remote_ops,
                    repr(result.completion_time), result.epr_rounds,
                ])
            payload.append(sorted(placement.mapping.items()))
        executions = len(self.built) * len(self.executors)
        if len(jcts) != executions:
            problems.append(f"{len(jcts)} executions finished, expected {executions}")
        return {
            "submitted": executions,
            "jobs": len(jcts),
            "completed": len(jcts),
            "digest": _digest(payload),
            "problems": problems,
            "paper_remote_ops_err": float(np.mean(errors)),
            **_jct_stats(jcts),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (AnchorBurst, EprContention, ClusterTrace, PaperFig22)
}
