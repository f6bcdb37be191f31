"""Placement outcomes that no seed can change: the failure-signature skip is exact.

The simulator's placement fast path skips a pending job's re-attempt when the
job's last attempt failed at the same ``(resource_version,
required_qubits)``.  An equal resource version implies an equal availability
map and fleet (``QuantumCloud.resource_version``), so the skip never changes
a result if a placement attempt's outcome is a function of the circuit and
the cloud alone.  These properties show that for the three algorithms the
simulator runs on every shipped workload:

* ``CloudQCPlacement`` and ``CloudQCBFSPlacement`` return the same mapping,
  or raise the same error, for any two seeds, with a cold context or a
  shared one warmed on an earlier cloud state;
* ``RandomPlacement`` succeeds whenever the free computing qubits cover the
  circuit -- the simulator only attempts a job then, so it never records a
  failure signature for it.

The clouds are line, ring, grid or random topologies of at most 12 QPUs,
partly filled by admitted filler jobs, sometimes with one idle QPU removed.
``ExhaustivePlacement``, ``SimulatedAnnealingPlacement`` and
``GeneticPlacement`` are not covered; with them the skip stays an
assumption (``incremental_placement=False`` recomputes every attempt).
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.cloud import CloudTopology, PlacementError, QuantumCloud
from repro.community import CommunityError
from repro.placement import (
    CloudQCBFSPlacement,
    CloudQCPlacement,
    MappingError,
    PlacementContext,
    RandomPlacement,
    validate_placement,
)

SEEDS = st.one_of(st.none(), st.integers(min_value=0, max_value=(1 << 31) - 1))


@st.composite
def topologies(draw) -> CloudTopology:
    kind = draw(st.sampled_from(["line", "ring", "grid", "random"]))
    if kind == "grid":
        rows = draw(st.integers(min_value=1, max_value=3))
        return CloudTopology.grid(rows, draw(st.integers(min_value=2, max_value=4)))
    if kind == "random":
        return CloudTopology.random(
            draw(st.integers(min_value=2, max_value=12)),
            edge_probability=draw(st.sampled_from([0.2, 0.4])),
            seed=draw(st.integers(min_value=0, max_value=1000)),
        )
    build = CloudTopology.line if kind == "line" else CloudTopology.ring
    return build(draw(st.integers(min_value=3, max_value=12)))


def consume(draw, cloud: QuantumCloud) -> List[str]:
    """Admit filler jobs on part of the capacity; maybe remove an idle QPU.

    Returns the admitted fillers' job ids.
    """
    fillers = []
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        qpus = []
        for qpu in cloud.qpu_ids:
            free = cloud.qpu(qpu).computing_available
            qpus += [qpu] * draw(st.integers(min_value=0, max_value=free))
        if qpus:
            fillers.append(f"filler-{index}")
            cloud.admit(fillers[-1], dict(enumerate(qpus)))
    idle = [qpu for qpu in cloud.qpu_ids if cloud.qpu(qpu).computing_used == 0]
    if idle and cloud.num_qpus > 1 and draw(st.booleans()):
        cloud.remove_qpu(draw(st.sampled_from(idle)))
    return fillers


@st.composite
def circuits(draw, max_qubits: int) -> QuantumCircuit:
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, name="generated")
    pairs = st.tuples(
        st.integers(min_value=0, max_value=num_qubits - 1),
        st.integers(min_value=1, max_value=num_qubits - 1),
    )
    for a, offset in draw(st.lists(pairs, max_size=3 * num_qubits)):
        circuit.cx(a, (a + offset) % num_qubits)
    return circuit


def draw_cloud(draw) -> QuantumCloud:
    return QuantumCloud(
        draw(topologies()),
        computing_qubits_per_qpu=draw(st.integers(min_value=2, max_value=10)),
        communication_qubits_per_qpu=2,
    )


def draw_circuit(draw, cloud: QuantumCloud) -> QuantumCircuit:
    # Up to a few qubits beyond the free capacity, so capacity failures occur.
    return draw(circuits(min(cloud.total_computing_available() + 4, 40)))


def outcome(algorithm, circuit, cloud, seed, context):
    """What the simulator sees of one attempt: the placement or the error."""
    try:
        placement = algorithm.place(circuit, cloud, seed=seed, context=context)
    except (MappingError, CommunityError, PlacementError) as error:
        return type(error).__name__, str(error)
    return placement.mapping, placement.score, placement.metadata


@pytest.mark.parametrize("algorithm_cls", [CloudQCPlacement, CloudQCBFSPlacement])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cloudqc_outcome_is_seed_free(algorithm_cls, data):
    algorithm = algorithm_cls()
    cloud = draw_cloud(data.draw)
    fillers = consume(data.draw, cloud)
    circuit = draw_circuit(data.draw, cloud)
    shared = PlacementContext()
    outcome(algorithm, circuit, cloud, data.draw(SEEDS), shared)
    if fillers and data.draw(st.booleans()):
        # A job completes: the shared context was warmed on an older version.
        cloud.release(data.draw(st.sampled_from(fillers)))
    first, second = data.draw(SEEDS), data.draw(SEEDS)
    expected = outcome(algorithm, circuit, cloud, first, None)
    for seed in (first, second):
        assert outcome(algorithm, circuit, cloud, seed, None) == expected
        assert outcome(algorithm, circuit, cloud, seed, shared) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_placement_fails_only_without_capacity(data):
    cloud = draw_cloud(data.draw)
    consume(data.draw, cloud)
    circuit = draw_circuit(data.draw, cloud)
    seed = data.draw(SEEDS)
    if sum(cloud.available_computing().values()) >= circuit.num_qubits:
        validate_placement(RandomPlacement().place(circuit, cloud, seed=seed), cloud)
    else:
        with pytest.raises(MappingError):
            RandomPlacement().place(circuit, cloud, seed=seed)
