"""A/B equivalence of the shared EPR-round kernel and the loop it replaced.

``ref_round`` below is a copy of the per-round loop both simulators used to
run inline: a fresh :class:`~repro.scheduling.AllocationRequest` per ready
operation (runnable jobs in order, node ids ascending), capacities read
through ``cloud.qpu()`` in sorted id order, one ``allocate`` call, then one
sample per granted request in request order through
``round_success_probability``.  ``RefCloudQCScheduler`` is the CloudQC
allocator written on ``max_allocatable``/``charge``, and ``ref_round``
resolves every path probability independently (``nx.shortest_path`` and the
per-link rule).  The baseline schedulers (greedy, average, random) run as
they are on both sides.

Hypothesis drives both sides over several consecutive rounds of multi-job
front layers (random remote DAGs and mappings, duplicate placements under
different job ids, line and grid topologies, communication capacities of
0-4, an off-fleet QPU, per-QPU EPR overrides and one link with its own
probability, some of which change between rounds; the kernel side then
empties its model's pair table, as the cluster simulator does), applying the
successes after every round.  Each round must produce the same allocation,
the same successes in the same order and the same RNG state, for every
registered scheduler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.cloud import QPU, CloudTopology, QuantumCloud
from repro.network import EPRModel
from repro.scheduling import (
    NETWORK_SCHEDULERS,
    AllocationRequest,
    NetworkScheduler,
    RemoteDAG,
    charge,
    get_scheduler,
    max_allocatable,
)
from repro.sim import FrontLayer, run_epr_round

OpId = Tuple[str, int]


# ----------------------------------------------------------------------
# Reference: the inline round loop and the CloudQC allocator it called
# ----------------------------------------------------------------------
class RefCloudQCScheduler(NetworkScheduler):
    name = "ref-cloudqc"

    def __init__(self, max_redundancy: Optional[int] = None) -> None:
        self.max_redundancy = max_redundancy

    def allocate(self, requests, capacity, rng=None):
        remaining = dict(capacity)
        allocation: Dict[OpId, int] = {}
        ordered = sorted(requests, key=lambda r: (-r.priority, r.op_id))
        for request in ordered:
            if max_allocatable(request, remaining) >= 1:
                allocation[request.op_id] = 1
                charge(request, 1, remaining)
        progress = True
        while progress:
            progress = False
            for request in ordered:
                granted = allocation.get(request.op_id, 0)
                if granted == 0:
                    continue
                if self.max_redundancy is not None and granted >= self.max_redundancy:
                    continue
                if max_allocatable(request, remaining) >= 1:
                    allocation[request.op_id] = granted + 1
                    charge(request, 1, remaining)
                    progress = True
        return allocation


def ref_link_probability(topology, a, b, default, node_probability):
    value = topology.graph.get_edge_data(a, b).get("epr_success_probability")
    if value is not None:
        return float(value)
    if node_probability is None:
        return default
    p_a, p_b = node_probability(a), node_probability(b)
    return min(
        default if p_a is None else float(p_a),
        default if p_b is None else float(p_b),
    )


def ref_round_probability(model: EPRModel, a: int, b: int, attempts: int) -> float:
    path = nx.shortest_path(model.topology.graph, a, b)
    p = 1.0
    for u, v in zip(path, path[1:]):
        p *= ref_link_probability(
            model.topology, u, v, model.success_probability, model.qpu_probability
        )
    expected = 1.0 - (1.0 - p) ** attempts
    assert model.round_success_probability(a, b, attempts) == expected
    return expected


def ref_round(fronts, cloud, scheduler, model, rng):
    requests: List[AllocationRequest] = []
    for job_id, front in fronts:
        for node_id in sorted(front.ready):
            operation = front.dag.operation(node_id)
            requests.append(
                AllocationRequest(
                    op_id=(job_id, node_id),
                    qpu_a=operation.qpus[0],
                    qpu_b=operation.qpus[1],
                    priority=operation.priority,
                )
            )
    capacity = {
        qpu_id: cloud.qpu(qpu_id).communication_capacity for qpu_id in cloud.qpu_ids
    }
    allocation = scheduler.allocate(requests, capacity, rng=rng)
    successes: List[OpId] = []
    for request in requests:
        granted = allocation.get(request.op_id, 0)
        if granted <= 0:
            continue
        probability = ref_round_probability(
            model, request.qpu_a, request.qpu_b, granted
        )
        if rng.random() < probability:
            successes.append(request.op_id)
    return allocation, successes


class Recording(NetworkScheduler):
    """Delegates to a scheduler and keeps the last allocation it returned."""

    def __init__(self, inner: NetworkScheduler) -> None:
        self.inner = inner
        self.last: Dict[OpId, int] = {}

    def allocate(self, requests, capacity, rng=None):
        self.last = self.inner.allocate(requests, capacity, rng=rng)
        return self.last


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: (label, kernel-side factory, reference-side factory) for every
#: registered scheduler; CloudQC also runs with redundancy caps.
SCHEDULERS = [
    ("cloudqc", lambda: get_scheduler("cloudqc"), RefCloudQCScheduler),
    (
        "cloudqc-cap1",
        lambda: get_scheduler("cloudqc", max_redundancy=1),
        lambda: RefCloudQCScheduler(max_redundancy=1),
    ),
    (
        "cloudqc-cap2",
        lambda: get_scheduler("cloudqc", max_redundancy=2),
        lambda: RefCloudQCScheduler(max_redundancy=2),
    ),
    ("greedy", lambda: get_scheduler("greedy"), lambda: get_scheduler("greedy")),
    ("average", lambda: get_scheduler("average"), lambda: get_scheduler("average")),
    ("random", lambda: get_scheduler("random"), lambda: get_scheduler("random")),
]


def test_every_registered_scheduler_is_covered():
    covered = {label.split("-")[0] for label, _, _ in SCHEDULERS}
    assert covered == set(NETWORK_SCHEDULERS)


@st.composite
def scenarios(draw):
    """A cloud, an EPR model and 1-4 placed jobs."""
    if draw(st.booleans()):
        topology = CloudTopology.line(draw(st.integers(2, 5)))
    else:
        topology = CloudTopology.grid(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    nodes = topology.qpu_ids
    members = nodes
    if len(nodes) > 2 and draw(st.booleans()):
        # One topology node is off the fleet: it relays swaps but has no
        # communication qubits of its own.
        off_fleet = draw(st.sampled_from(nodes))
        members = [node for node in nodes if node != off_fleet]
    capacities = st.integers(0, 4)
    overrides = st.sampled_from((None, None, 0.1, 0.5, 0.9))
    cloud = QuantumCloud(
        topology,
        epr_success_probability=0.3,
        qpus={
            node: QPU(
                qpu_id=node,
                computing_capacity=8,
                communication_capacity=draw(capacities),
                epr_success_probability=draw(overrides),
            )
            for node in members
        },
    )
    link = draw(st.sampled_from(topology.links()))
    topology.graph.edges[link]["epr_success_probability"] = draw(
        st.sampled_from((None, 0.25, 0.8))
    )
    model = EPRModel(
        topology,
        draw(st.sampled_from((0.3, 0.6))),
        qpu_probability=cloud.qpu_epr_probability,
    )

    jobs: List[Tuple[str, QuantumCircuit, Dict[int, int]]] = []
    for index in range(draw(st.integers(1, 4))):
        # Ids whose string order differs from runnable order.
        job_id = f"job-{draw(st.sampled_from((1, 2, 9, 10, 11, 20)))}-{index}"
        if jobs and draw(st.integers(0, 3)) == 0:
            # The same placement again, under another job id.
            _, circuit, mapping = draw(st.sampled_from(jobs))
            jobs.append((job_id, circuit, mapping))
            continue
        num_qubits = draw(st.integers(2, 6))
        circuit = QuantumCircuit(num_qubits, name=f"c{index}")
        for _ in range(draw(st.integers(1, 14))):
            a, b = draw(st.permutations(range(num_qubits)))[:2]
            if draw(st.integers(0, 4)) == 0:
                circuit.h(a)
            else:
                circuit.cx(a, b)
        mapping = {q: draw(st.sampled_from(nodes)) for q in range(num_qubits)}
        jobs.append((job_id, circuit, mapping))
    return cloud, model, jobs


def contested_redundancy():
    """Two one-op jobs on a 2-QPU line with one spare pair after the base pass.

    Runnable order puts ``job-9`` first, priority order (ties broken by op
    id) puts ``job-10`` first, so only a redundancy pass that walks the
    grantees by priority hands the spare pair to ``job-10``.
    """
    topology = CloudTopology.line(2)
    cloud = QuantumCloud(topology, communication_qubits_per_qpu=3)
    model = EPRModel(topology, 0.3, qpu_probability=cloud.qpu_epr_probability)
    circuit = QuantumCircuit(2, name="pair")
    circuit.cx(0, 1)
    mapping = {0: 0, 1: 1}
    return cloud, model, [("job-9", circuit, mapping), ("job-10", circuit, mapping)]


def fresh_fronts(jobs) -> List[Tuple[str, FrontLayer]]:
    return [
        (job_id, FrontLayer(RemoteDAG(circuit, mapping)))
        for job_id, circuit, mapping in jobs
    ]


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "label, make, make_ref", SCHEDULERS, ids=[label for label, _, _ in SCHEDULERS]
)
@settings(max_examples=60, deadline=None)
@example(scenario=contested_redundancy(), seed=0, rounds=1, changes=[])
@given(
    scenario=scenarios(),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 6),
    changes=st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from((None, 0.2, 0.7))), max_size=6
    ),
)
def test_kernel_matches_inline_round(
    label, make, make_ref, scenario, seed, rounds, changes
):
    cloud, model, jobs = scenario
    fronts, ref_fronts = fresh_fronts(jobs), fresh_fronts(jobs)
    scheduler, ref_scheduler = Recording(make()), make_ref()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for round_index in range(rounds):
        runnable = [(job_id, front) for job_id, front in fronts if front.ready]
        ref_runnable = [(job_id, front) for job_id, front in ref_fronts if front.ready]
        if not runnable:
            assert not ref_runnable
            break
        successes = run_epr_round(
            runnable,
            {qpu_id: qpu.communication_capacity for qpu_id, qpu in cloud.qpus.items()},
            scheduler,
            model,
            rng,
        )
        ref_allocation, ref_successes = ref_round(
            ref_runnable, cloud, ref_scheduler, model, ref_rng
        )
        assert scheduler.last == ref_allocation
        assert list(scheduler.last.items()) == list(ref_allocation.items())
        assert successes == ref_successes
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for side, done in ((fronts, successes), (ref_fronts, ref_successes)):
            by_job = dict(side)
            for job_id, node_id in done:
                by_job[job_id].finish(node_id, float(round_index))
        assert [f.ready for _, f in fronts] == [f.ready for _, f in ref_fronts]
        # Calibration windows open and close between rounds: the next round
        # must see the new per-QPU probabilities and link attribute.  The
        # kernel side empties the model's pair table as the simulator does
        # when an override changes; the reference resolves every path live.
        for qpu_id, probability in changes[round_index::rounds]:
            if qpu_id in cloud.qpus:
                cloud.set_qpu_epr_probability(qpu_id, probability)
            else:
                links = cloud.topology.links()
                link = links[qpu_id % len(links)]
                cloud.topology.graph.edges[link]["epr_success_probability"] = (
                    probability
                )
            model.clear_pair_table()


def test_request_table_is_per_job():
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    dag = RemoteDAG(circuit, {0: 0, 1: 1})
    front, other = FrontLayer(dag), FrontLayer(dag)
    assert [r.op_id for r in front.requests("job-a")] == [("job-a", 0)]
    assert [r.op_id for r in other.requests("job-b")] == [("job-b", 0)]
    assert [r.op_id for r in front.requests("job-c")] == [("job-c", 0)]
