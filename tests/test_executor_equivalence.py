"""Differential check: executing one placed circuit is a one-job cluster run.

``ref_execute`` below is a copy of the round loop ``NetworkExecutor`` ran
for a single job before it became a one-job run of the cluster simulator:
one :func:`~repro.sim.run_epr_round` per EPR round over the job's front
layer, capacities read once per call, successes finished at round end plus
the two-qubit-gate and measurement tail, and completion at the later of the
local critical path and the last remote finish.  Its EPR model has no
per-QPU hook, as the old loop's did not.

The cluster simulator draws one placement seed, ``rng.integers(1 << 31)``,
before its first EPR round.  Fed a generator advanced by that one draw, the
reference must match ``NetworkExecutor`` exactly -- completion time, EPR
rounds, local time and remote-operation count -- for every registered
scheduler, on random circuits, mappings, topologies (with an off-fleet
relay node and a per-link probability), communication capacities, EPR
probabilities, latency models and seeds.  That draw is the only difference
between the two round models.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.cloud import QPU, CloudTopology, QuantumCloud
from repro.network import EPRModel
from repro.scheduling import NETWORK_SCHEDULERS, RemoteDAG, get_scheduler
from repro.sim import (
    DEFAULT_LATENCY,
    FrontLayer,
    LatencyModel,
    NetworkExecutor,
    local_execution_time,
    run_epr_round,
)


# ----------------------------------------------------------------------
# Reference: the executor's own round loop, for one job starting at t=0
# ----------------------------------------------------------------------
def ref_execute(
    cloud: QuantumCloud,
    scheduler,
    circuit: QuantumCircuit,
    mapping: Dict[int, int],
    rng: np.random.Generator,
    latency: LatencyModel = DEFAULT_LATENCY,
    epr_success_probability: Optional[float] = None,
) -> Tuple[float, int, float, int]:
    """``(completion_time, epr_rounds, local_time, num_remote_operations)``."""
    probability = (
        cloud.epr_success_probability
        if epr_success_probability is None
        else epr_success_probability
    )
    epr_model = EPRModel(cloud.topology, probability)
    dag = RemoteDAG(circuit, mapping)
    front = FrontLayer(dag, start_time=0.0)
    local_time = local_execution_time(circuit, latency)
    capacity = {
        qpu_id: qpu.communication_capacity for qpu_id, qpu in cloud.qpus.items()
    }
    completion_tail = latency.two_qubit_gate + latency.measurement
    time, rounds = 0.0, 0
    while front.completed < dag.num_operations:
        successes = run_epr_round(
            [("job-0", front)], capacity, scheduler, epr_model, rng
        )
        round_end = time + latency.epr_preparation
        finish = round_end + completion_tail
        for _, node_id in successes:
            front.finish(node_id, finish)
        rounds += 1
        time = round_end
    completion = max(local_time, front.last_finish)
    return completion, rounds, local_time, dag.num_operations


def advanced_rng(seed: int) -> np.random.Generator:
    """The generator after the simulator's one placement-seed draw."""
    rng = np.random.default_rng(seed)
    rng.integers(1 << 31)
    return rng


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Every registered scheduler, plus CloudQC with a redundancy cap.
SCHEDULERS = sorted(NETWORK_SCHEDULERS) + ["cloudqc-cap1"]


def make_scheduler(label: str):
    if label == "cloudqc-cap1":
        return get_scheduler("cloudqc", max_redundancy=1)
    return get_scheduler(label)


LATENCIES = (DEFAULT_LATENCY, LatencyModel(0.2, 2.0, 3.0, 7.5))


@st.composite
def scenarios(draw):
    """A cloud whose member QPUs all have communication qubits, a circuit
    and a mapping onto the members."""
    shape = draw(st.sampled_from(("line", "ring", "grid")))
    if shape == "grid":
        topology = CloudTopology.grid(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    elif shape == "ring":
        topology = CloudTopology.ring(draw(st.integers(3, 5)))
    else:
        topology = CloudTopology.line(draw(st.integers(2, 5)))
    nodes = topology.qpu_ids
    members = nodes
    if len(nodes) > 2 and draw(st.booleans()):
        # One topology node is off the fleet: it only relays swaps.
        off_fleet = draw(st.sampled_from(nodes))
        members = [node for node in nodes if node != off_fleet]
    link = draw(st.sampled_from(topology.links()))
    topology.graph.edges[link]["epr_success_probability"] = draw(
        st.sampled_from((None, 0.25, 0.8))
    )
    num_qubits = draw(st.integers(2, 7))
    cloud = QuantumCloud(
        topology,
        epr_success_probability=draw(st.sampled_from((0.1, 0.3, 0.9, 1.0))),
        qpus={
            node: QPU(
                qpu_id=node,
                computing_capacity=num_qubits,
                communication_capacity=draw(st.integers(1, 4)),
            )
            for node in members
        },
    )
    circuit = QuantumCircuit(num_qubits, name="random")
    for _ in range(draw(st.integers(1, 18))):
        a, b = draw(st.permutations(range(num_qubits)))[:2]
        kind = draw(st.integers(0, 5))
        if kind == 0:
            circuit.h(a)
        elif kind == 1:
            circuit.measure(a)
        else:
            circuit.cx(a, b)
    mapping = {q: draw(st.sampled_from(members)) for q in range(num_qubits)}
    return cloud, circuit, mapping


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    scenario=scenarios(),
    label=st.sampled_from(SCHEDULERS),
    latency=st.sampled_from(LATENCIES),
    probability=st.sampled_from((None, 0.2, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_executor_matches_the_old_loop_after_one_seed_draw(
    scenario, label, latency, probability, seed
):
    cloud, circuit, mapping = scenario
    executor = NetworkExecutor(
        cloud, make_scheduler(label), latency=latency,
        epr_success_probability=probability,
    )
    result = executor.execute(circuit, mapping, seed=seed)
    reference = ref_execute(
        cloud, make_scheduler(label), circuit, mapping, advanced_rng(seed),
        latency=latency, epr_success_probability=probability,
    )
    assert result.start_time == 0.0
    assert (
        result.completion_time,
        result.epr_rounds,
        result.local_time,
        result.num_remote_operations,
    ) == reference
