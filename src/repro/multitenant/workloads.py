"""Multi-tenant workload generators (Sec. VI-D) and synthetic cluster traces.

The paper evaluates four workload mixes; a batch is 20 circuits drawn uniformly
at random from the mix.  Circuits are generated once per name and cached, since
the generators are deterministic.

:func:`generate_cluster_trace` goes beyond the paper's 20-job batches: it
synthesises a large-scale submission trace (thousands of tenants, heavy-tailed
job sizes, diurnal rate modulation) whose timestamps feed
:func:`~repro.multitenant.arrivals.trace_arrivals` and whose circuits feed
:meth:`~repro.multitenant.MultiTenantSimulator.run_stream` -- the workload the
admission-control policies are evaluated on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..circuits import QuantumCircuit
from ..sim import DEFAULT_LATENCY, local_execution_time
from .arrivals import trace_arrivals
from .trace import TraceRecord, cached_circuit as _cached_circuit, write_trace

#: Circuit names of every workload mix used in Figs. 14-17.
WORKLOADS: Dict[str, List[str]] = {
    "mixed": [
        "knn_n129",
        "qugan_n111",
        "qugan_n71",
        "qft_n63",
        "multiplier_n45",
        "multiplier_n75",
    ],
    "qft": ["qft_n29", "qft_n63", "qft_n100"],
    "qugan": ["qugan_n39", "qugan_n71", "qugan_n111"],
    "arithmetic": ["adder_n64", "adder_n118", "multiplier_n45", "multiplier_n75"],
}


def workload_circuits(workload: str) -> List[str]:
    """The circuit names a workload draws from."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    return list(WORKLOADS[workload])


def generate_batch(
    workload: str,
    batch_size: int = 20,
    seed: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
) -> List[QuantumCircuit]:
    """Sample a batch of circuits from a workload mix.

    Parameters
    ----------
    workload:
        One of ``"mixed"``, ``"qft"``, ``"qugan"``, ``"arithmetic"`` (ignored
        when ``names`` is given explicitly).
    batch_size:
        Number of circuits per batch; the paper uses 20.
    seed:
        Sampling seed.
    names:
        Optional explicit pool of circuit names overriding the workload mix.
    """
    pool = list(names) if names is not None else workload_circuits(workload)
    if not pool:
        raise ValueError("workload pool is empty")
    if batch_size <= 0:
        raise ValueError("batch size must be positive")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=batch_size, replace=True)
    return [_cached_circuit(pool[int(index)]) for index in chosen]


#: Default circuit pool for synthetic traces, ordered small -> large so the
#: heavy-tailed size index maps rank 0 to the lightest job.
TRACE_CIRCUIT_POOL: List[str] = [
    "ghz_n4",
    "ghz_n6",
    "ghz_n8",
    "ghz_n12",
    "ghz_n16",
    "qft_n16",
    "qft_n29",
    "ising_n34",
]


@dataclass(frozen=True)
class ClusterTrace:
    """A synthetic cluster submission trace ready for ``run_stream``.

    ``arrival_times`` are already rebased simulator times (via
    :func:`~repro.multitenant.arrivals.trace_arrivals`), sorted ascending and
    paired index-by-index with ``circuits`` and ``tenant_ids``.
    """

    circuits: List[QuantumCircuit]
    arrival_times: List[float]
    tenant_ids: List[int]

    def __len__(self) -> int:
        return len(self.circuits)

    @property
    def num_tenants(self) -> int:
        """Number of distinct tenants that actually appear in the trace."""
        return len(set(self.tenant_ids))

    def iter_records(self) -> Iterator[TraceRecord]:
        """The trace as schema records (see :mod:`repro.multitenant.trace`).

        Circuits are referenced by library name, so a round trip through
        :meth:`to_file` and a :class:`~repro.multitenant.trace.TraceReader`
        resolves back to the identical cached circuit objects.  This is also
        what ``run_stream(trace=cluster_trace)`` consumes.
        """
        for circuit, arrival, tenant in zip(
            self.circuits, self.arrival_times, self.tenant_ids
        ):
            yield TraceRecord(
                arrival_time=arrival, circuit=circuit.name, tenant=tenant
            )

    def to_file(self, path: Union[str, os.PathLike]) -> int:
        """Export as an on-disk jsonl trace; returns the record count.

        The synthetic generators' output round-trips: writing a generated
        trace and replaying the file lazily is bit-identical to replaying
        the in-memory trace directly.
        """
        return write_trace(path, self.iter_records())


def generate_anchor_burst_trace(
    cycles: int,
    fillers_per_cycle: int,
    anchor: str = "ghz_n51",
    filler: str = "ghz_n9",
    num_qpus: int = 6,
    burst_fraction: float = 0.8,
    period_factor: float = 2.0,
) -> ClusterTrace:
    """Anchor-and-burst overload cycles: the preemption stress workload.

    Every cycle, one large *anchor* circuit arrives first and — on a cloud
    of ``num_qpus`` QPUs it nearly fills — pins most of the computing
    qubits for a long stretch, while ``fillers_per_cycle`` small *filler*
    circuits arrive spread over the first ``burst_fraction`` of the
    anchor's local span.  While the anchor runs, the leftover capacity is
    fragmented dust, so the fillers queue behind it; with a queueing
    deadline shorter than the anchor's span they expire unless a
    preemption policy rescues them (the deadline-rescue scenario of
    ``benchmarks/test_stream_preemption.py`` and
    ``examples/stream_preemption.py``).

    The cycle period is ``period_factor`` anchor spans plus a filler-drain
    allowance, which leaves room for a rescued anchor to resume and finish
    before the next anchor arrives.  Tenant 0 submits the anchors; filler
    ``i`` of each burst belongs to tenant ``1 + i``.  The trace is fully
    deterministic (no RNG).
    """
    if cycles < 0:
        raise ValueError("cycles cannot be negative")
    if fillers_per_cycle < 0:
        raise ValueError("fillers_per_cycle cannot be negative")
    if num_qpus <= 0:
        raise ValueError("num_qpus must be positive")
    if not 0.0 < burst_fraction <= 1.0:
        raise ValueError("burst_fraction must lie in (0, 1]")
    if period_factor < 1.0:
        raise ValueError("period_factor must be at least 1")
    anchor_circuit = _cached_circuit(anchor)
    filler_circuit = _cached_circuit(filler)
    anchor_span = local_execution_time(anchor_circuit, DEFAULT_LATENCY)
    burst_end = burst_fraction * anchor_span
    drain = num_qpus * local_execution_time(filler_circuit, DEFAULT_LATENCY) * (
        fillers_per_cycle / num_qpus + 2
    )
    circuits: List[QuantumCircuit] = []
    arrivals: List[float] = []
    tenants: List[int] = []
    t = 0.0
    for _ in range(cycles):
        circuits.append(anchor_circuit)
        arrivals.append(t)
        tenants.append(0)
        for index in range(fillers_per_cycle):
            circuits.append(filler_circuit)
            arrivals.append(t + 1.0 + burst_end * index / fillers_per_cycle)
            tenants.append(1 + index)
        t += period_factor * anchor_span + drain
    return ClusterTrace(
        circuits=circuits, arrival_times=arrivals, tenant_ids=tenants
    )


def generate_cluster_trace(
    num_jobs: int,
    num_tenants: int = 1000,
    base_rate: float = 0.05,
    diurnal_amplitude: float = 0.5,
    diurnal_period: float = 20_000.0,
    size_tail: float = 1.5,
    tenant_skew: float = 1.2,
    seed: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
) -> ClusterTrace:
    """Synthesise a large-scale cluster submission trace.

    Models the three properties real cluster traces exhibit that the paper's
    uniform 20-job batches do not:

    * *diurnal load* -- arrivals follow a non-homogeneous Poisson process with
      rate ``base_rate * (1 + diurnal_amplitude * sin(2 pi t / period))``,
      sampled by thinning, so the trace alternates between rush hours and
      quiet valleys;
    * *heavy-tailed job sizes* -- the circuit pool (``names``, ordered small
      to large; :data:`TRACE_CIRCUIT_POOL` by default) is indexed by a
      Pareto-distributed rank with tail exponent ``size_tail``: most jobs are
      small, a heavy tail is large;
    * *skewed tenant activity* -- each job belongs to one of ``num_tenants``
      tenants with Zipf-like weights ``rank^-tenant_skew`` (a few tenants
      dominate, most submit rarely).

    The result is deterministic for a given ``seed``.  Timestamps are passed
    through :func:`~repro.multitenant.arrivals.trace_arrivals`, so they come
    back rebased to start at 0.
    """
    if num_jobs < 0:
        raise ValueError("num_jobs cannot be negative")
    if num_tenants <= 0:
        raise ValueError("num_tenants must be positive")
    if not math.isfinite(base_rate) or base_rate <= 0:
        raise ValueError("base_rate must be positive and finite")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    if diurnal_period <= 0:
        raise ValueError("diurnal_period must be positive")
    if size_tail <= 0 or tenant_skew < 0:
        raise ValueError("size_tail must be positive and tenant_skew >= 0")
    pool = list(names) if names is not None else list(TRACE_CIRCUIT_POOL)
    if not pool:
        raise ValueError("circuit pool is empty")
    if num_jobs == 0:
        return ClusterTrace(circuits=[], arrival_times=[], tenant_ids=[])

    rng = np.random.default_rng(seed)

    # Diurnal arrivals: thin a homogeneous process at the peak rate.
    peak_rate = base_rate * (1.0 + diurnal_amplitude)
    timestamps: List[float] = []
    now = 0.0
    while len(timestamps) < num_jobs:
        now += float(rng.exponential(1.0 / peak_rate))
        rate_now = base_rate * (
            1.0 + diurnal_amplitude * math.sin(2.0 * math.pi * now / diurnal_period)
        )
        if rng.random() * peak_rate <= rate_now:
            timestamps.append(now)

    # Heavy-tailed sizes: Pareto rank into the small->large pool.
    ranks = np.minimum(
        np.floor(rng.pareto(size_tail, size=num_jobs)).astype(int),
        len(pool) - 1,
    )
    circuits = [_cached_circuit(pool[int(rank)]) for rank in ranks]

    # Skewed tenant activity: Zipf-like weights over the tenant population.
    weights = np.arange(1, num_tenants + 1, dtype=float) ** -tenant_skew
    weights /= weights.sum()
    tenant_ids = [
        int(tenant) for tenant in rng.choice(num_tenants, size=num_jobs, p=weights)
    ]

    return ClusterTrace(
        circuits=circuits,
        arrival_times=trace_arrivals(timestamps),
        tenant_ids=tenant_ids,
    )
