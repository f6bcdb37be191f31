"""A/B equivalence of RandomPlacement's draws and the ``Generator.choice`` originals.

``ref_random_qpu_walk`` and ``ref_random_mapping`` below are copies of the
formulations that drew every pick with ``int(rng.choice(seq))``.  The library
draws ``seq[int(rng.integers(len(seq)))]``, which is how numpy's ``choice``
itself draws a uniform pick with replacement, so the values and the generator
state after every call must be identical.  Hypothesis drives both sides over
line, ring, grid and random topologies of up to 25 QPUs whose availability is
reduced by admitted filler jobs (some QPUs with no free qubit), with one QPU
taken out of the fleet, and circuits of 1-40 qubits.  It asserts equal QPU
selections, equal mappings in insertion order, equal ``RandomPlacement``
results, and an equal ``rng.bit_generator.state`` after each step.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.placement import RandomPlacement, random_mapping, random_qpu_walk
from repro.placement.mapping import MappingError
from repro.placement.scoring import score_mapping


# ----------------------------------------------------------------------
# Reference: the rng.choice draws (kept verbatim, comments trimmed)
# ----------------------------------------------------------------------
def ref_random_qpu_walk(cloud, required_qubits, rng) -> List[int]:
    available = cloud.available_computing()
    if sum(available.values()) < required_qubits:
        raise MappingError(
            f"cloud has {sum(available.values())} free qubits, need {required_qubits}"
        )
    start = int(rng.choice(cloud.qpu_ids))
    selected: List[int] = []
    capacity = 0
    visited = {start}
    frontier = [start]
    while frontier and capacity < required_qubits:
        index = int(rng.integers(len(frontier)))
        qpu = frontier.pop(index)
        if available[qpu] > 0:
            selected.append(qpu)
            capacity += available[qpu]
        for neighbor in cloud.topology.neighbors(qpu):
            if neighbor not in visited and neighbor in available:
                visited.add(neighbor)
                frontier.append(neighbor)
    if capacity < required_qubits:
        remaining = [q for q in cloud.qpu_ids if q not in selected and available[q] > 0]
        rng.shuffle(remaining)
        for qpu in remaining:
            selected.append(qpu)
            capacity += available[qpu]
            if capacity >= required_qubits:
                break
    return selected


def ref_random_mapping(circuit, cloud, rng, qpu_set=None) -> Dict[int, int]:
    if qpu_set is None:
        qpu_set = ref_random_qpu_walk(cloud, circuit.num_qubits, rng)
    slack = {qpu: cloud.qpu(qpu).computing_available for qpu in qpu_set}
    qubits = list(range(circuit.num_qubits))
    rng.shuffle(qubits)
    mapping: Dict[int, int] = {}
    for qubit in qubits:
        options = [qpu for qpu in qpu_set if slack[qpu] > 0]
        if not options:
            raise MappingError("selected QPU set ran out of capacity")
        choice = int(rng.choice(options))
        mapping[qubit] = choice
        slack[choice] -= 1
    return mapping


def place(circuit, cloud, seed) -> dict:
    placement = RandomPlacement().place(circuit, cloud, seed=seed)
    return {
        "mapping": list(placement.mapping.items()),
        "score": placement.score,
        "metadata": placement.metadata,
    }


def ref_place(circuit, cloud, seed) -> dict:
    rng = np.random.default_rng(seed)
    mapping = ref_random_mapping(circuit, cloud, rng)
    metrics = score_mapping(circuit, mapping, cloud)
    return {"mapping": list(mapping.items()), "score": metrics["score"], "metadata": metrics}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def topologies(draw) -> CloudTopology:
    shape = draw(st.sampled_from(("line", "ring", "grid", "random")))
    if shape == "grid":
        rows = draw(st.integers(1, 5))
        return CloudTopology.grid(rows, draw(st.integers(2, 25 // rows)))
    size = draw(st.integers(3 if shape == "ring" else 2, 25))
    if shape == "line":
        return CloudTopology.line(size)
    if shape == "ring":
        return CloudTopology.ring(size)
    return CloudTopology.random(
        size, draw(st.sampled_from((0.05, 0.2, 0.5))), seed=draw(st.integers(0, 99))
    )


@st.composite
def clouds(draw) -> QuantumCloud:
    """A cloud with one QPU (maybe) off the fleet and fillers on the others."""
    topology = draw(topologies())
    cloud = QuantumCloud(topology, computing_qubits_per_qpu=draw(st.integers(1, 8)))
    removed = draw(st.none() | st.sampled_from(topology.qpu_ids))
    if removed is not None:
        cloud.remove_qpu(removed)
    for qpu_id in cloud.qpu_ids:
        taken = draw(st.integers(0, cloud.qpu(qpu_id).computing_capacity))
        if taken:
            cloud.admit(f"filler-{qpu_id}", {q: qpu_id for q in range(taken)})
    return cloud


@st.composite
def circuits(draw) -> QuantumCircuit:
    num_qubits = draw(st.integers(1, 40))
    circuit = QuantumCircuit(num_qubits, name="hypothesis")
    for _ in range(draw(st.integers(0, 30))):
        if num_qubits == 1 or draw(st.booleans()):
            circuit.h(draw(st.integers(0, num_qubits - 1)))
        else:
            a, b = draw(st.permutations(range(num_qubits)))[:2]
            circuit.cx(a, b)
    return circuit


def outcome(call, *args, **kwargs):
    """``("ok", result)``, or the error's type and message."""
    try:
        result = call(*args, **kwargs)
    except MappingError as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, dict):
        result = list(result.items())  # insertion order matters too
    return ("ok", result)


def twin_generators(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(cloud=clouds(), required=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_qpu_walk_matches_choice_draws(cloud, required, seed):
    rng, ref_rng = twin_generators(seed)
    assert outcome(random_qpu_walk, cloud, required, rng) == outcome(
        ref_random_qpu_walk, cloud, required, ref_rng
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(cloud=clouds(), circuit=circuits(), seed=st.integers(0, 2**32 - 1))
def test_consecutive_mappings_match_choice_draws(cloud, circuit, seed):
    # Three calls on one generator, the way GeneticPlacement seeds its population.
    rng, ref_rng = twin_generators(seed)
    for _ in range(3):
        assert outcome(random_mapping, circuit, cloud, rng) == outcome(
            ref_random_mapping, circuit, cloud, ref_rng
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(cloud=clouds(), circuit=circuits(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_mapping_over_given_qpu_set_matches_choice_draws(cloud, circuit, data, seed):
    members = data.draw(st.permutations(cloud.qpu_ids))
    qpu_set = members[: data.draw(st.integers(1, len(members)))]
    rng, ref_rng = twin_generators(seed)
    assert outcome(random_mapping, circuit, cloud, rng, qpu_set=qpu_set) == outcome(
        ref_random_mapping, circuit, cloud, ref_rng, qpu_set=qpu_set
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(cloud=clouds(), circuit=circuits(), seed=st.integers(0, 2**31 - 1))
def test_random_placement_matches_choice_draws(cloud, circuit, seed):
    assert outcome(place, circuit, cloud, seed) == outcome(ref_place, circuit, cloud, seed)


def test_mapping_values_stay_python_ints():
    cloud = QuantumCloud(CloudTopology.line(4), computing_qubits_per_qpu=3)
    circuit = QuantumCircuit(6, name="six")
    rng = np.random.default_rng(5)
    mapping = random_mapping(circuit, cloud, rng, qpu_set=np.array([3, 1]))
    assert {type(qpu) for qpu in mapping.values()} == {int}
    assert {type(qpu) for qpu in random_mapping(circuit, cloud, rng).values()} == {int}
