"""A/B equivalence of Algorithm 2's stored part order and the per-call original.

``ref_mapping_order`` and ``ref_map_partitions_to_qpus`` below are copies of
the code that recomputed Algorithm 2's part order and the live availability
map on every ``map_partitions_to_qpus`` call: ``graph_center`` of the
quotient (the largest part when no part crosses another), then the
heaviest-edge-first BFS from it, then the parts the BFS cannot reach, with
availability summed from each QPU's per-job usage.  ``PlacementContext`` now
stores the order in the quotient's entry, and the mapping reads availability
from ``QuantumCloud.available_computing()``.

Hypothesis draws partitions of up to 7 parts labelled 0-30 (so labels >= 10
make ``str`` order differ from numeric order in ``graph_center``'s
tie-break), connected, disconnected or edgeless quotients with tied
crossing-gate counts, and clouds fragmented by filler jobs.  Each partition
runs through a real context, with the partitioner patched to return it.  The
property asserts that the stored order equals the reference, that reading it
moves no hit/miss counter, and that the mapping with a warm context, without
a context, and the reference agree, also inside ``preview_without``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Set
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.library import get_circuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.community import graph_center
from repro.placement import CloudQCPlacement, PlacementContext
from repro.placement.mapping import (
    MappingError,
    _pick_qpu,
    map_partitions_to_qpus,
)

IMBALANCE = 0.05


# ----------------------------------------------------------------------
# Reference: the per-call order and availability (comments trimmed)
# ----------------------------------------------------------------------
def ref_part_sizes(assignment) -> Dict[int, int]:
    part_sizes: Dict[int, int] = {}
    for part in assignment.values():
        part_sizes[part] = part_sizes.get(part, 0) + 1
    return part_sizes


def ref_part_order(quotient, center_part) -> List[Hashable]:
    order: List[Hashable] = []
    visited = {center_part}
    queue = deque([center_part])
    while queue:
        part = queue.popleft()
        order.append(part)
        for neighbor, _ in sorted(quotient[part].items(), key=lambda item: -item[1]):
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    for part in sorted(set(quotient) - visited):
        order.append(part)
    return order


def ref_mapping_order(part_sizes, quotient) -> List[Hashable]:
    parts = list(part_sizes)
    if quotient and any(quotient.values()):
        center_part = graph_center(quotient)
    else:
        center_part = max(parts, key=lambda p: part_sizes[p])
    order = ref_part_order(quotient, center_part) if quotient else list(parts)
    for part in parts:
        if part not in order:
            order.append(part)
    return order


def ref_map_partitions_to_qpus(part_sizes, quotient, cloud, candidate_qpus):
    if not part_sizes:
        return {}
    qpu_ids = cloud.qpu_ids
    candidates = [q for q in candidate_qpus if q in cloud.qpus]
    if not candidates:
        candidates = qpu_ids
    available = {
        qpu_id: cloud.qpus[qpu_id].computing_available for qpu_id in qpu_ids
    }
    community_center = graph_center(cloud.topology.graph, candidates)
    order = ref_mapping_order(part_sizes, quotient)
    distances = cloud.topology.distance_table()
    mapping: Dict[Hashable, int] = {}
    used: Set[int] = set()
    for part in order:
        if part not in part_sizes:
            continue
        size = part_sizes[part]
        target = _pick_qpu(
            part, size, mapping, quotient, distances, qpu_ids, candidates,
            available, used, community_center,
        )
        if target is None:
            raise MappingError(f"no QPU can host part {part!r} needing {size} qubits")
        mapping[part] = target
        available[target] -= size
        used.add(target)
    return mapping


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def partitions(draw):
    """``(circuit, assignment)``: parts, sizes and crossing gates of one partition."""
    labels = draw(st.lists(st.integers(0, 30), min_size=1, max_size=7, unique=True))
    sizes = [draw(st.integers(1, 4)) for _ in labels]
    shape = draw(st.sampled_from(("connected", "disconnected", "edgeless")))
    # Parts labels[:split] and labels[split:] never share an edge when the
    # quotient is disconnected.
    split = draw(st.integers(1, max(1, len(labels) - 1))) if shape == "disconnected" else 0
    pairs = []
    if shape == "connected":
        pairs += [(draw(st.integers(0, i - 1)), i) for i in range(1, len(labels))]
    if shape != "edgeless" and len(labels) > 1:
        for _ in range(draw(st.integers(0, 8))):
            a, b = draw(st.permutations(range(len(labels))))[:2]
            if (a < split) == (b < split):
                pairs.append((a, b))
    first = [sum(sizes[:index]) for index in range(len(labels))]
    circuit = QuantumCircuit(sum(sizes), name="hypothesis")
    for a, b in pairs:
        # Weights 1-3 gates per edge, so tied crossing counts are common.
        for _ in range(draw(st.integers(1, 3))):
            circuit.cx(
                first[a] + draw(st.integers(0, sizes[a] - 1)),
                first[b] + draw(st.integers(0, sizes[b] - 1)),
            )
    for index in range(len(labels)):
        if sizes[index] > 1:
            circuit.cx(first[index], first[index] + 1)  # inside one part
    assignment = {
        first[index] + offset: labels[index]
        for index in range(len(labels))
        for offset in range(sizes[index])
    }
    return circuit, assignment


@st.composite
def clouds(draw) -> QuantumCloud:
    shape = CloudTopology.line if draw(st.booleans()) else CloudTopology.ring
    topology = shape(draw(st.integers(3, 8)))
    cloud = QuantumCloud(topology, computing_qubits_per_qpu=draw(st.integers(2, 10)))
    cloud.available_computing()  # a cached map that the fillers make stale
    for qpu_id in cloud.qpu_ids:
        taken = draw(st.integers(0, cloud.qpu(qpu_id).computing_capacity - 1))
        if taken:
            cloud.admit(f"filler-{qpu_id}", {q: qpu_id for q in range(taken)})
    return cloud


def stored_entry(circuit, assignment):
    """A context that partitioned ``circuit`` into ``assignment``, and its entry."""
    context = PlacementContext()
    num_parts = len(set(assignment.values()))
    with mock.patch(
        "repro.placement.context.partition_graph", lambda *a, **k: dict(assignment)
    ):
        cached = context.partition(circuit, num_parts, IMBALANCE)
    quotient = context.quotient(circuit, cached, num_parts, IMBALANCE)
    return context, cached, quotient, num_parts


def outcome(call, *args, **kwargs):
    """``("ok", mapping items in insertion order)``, or the error message."""
    try:
        return ("ok", list(call(*args, **kwargs).items()))
    except MappingError as exc:
        return ("error", str(exc))


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(partition=partitions(), cloud=clouds(), data=st.data())
def test_stored_order_and_mapping_match_reference(partition, cloud, data):
    circuit, assignment = partition
    context, cached, quotient, num_parts = stored_entry(circuit, assignment)
    part_sizes = ref_part_sizes(cached)

    counters = (context.hits, context.misses, context.stats())
    stored = context.part_order(circuit, num_parts, IMBALANCE, quotient)
    assert (context.hits, context.misses, context.stats()) == counters
    assert stored is not None
    assert list(stored) == ref_mapping_order(part_sizes, quotient)

    members = data.draw(st.permutations(cloud.qpu_ids))
    candidates = members[: data.draw(st.integers(1, len(members)))]
    expected = outcome(ref_map_partitions_to_qpus, part_sizes, quotient, cloud, candidates)
    assert outcome(map_partitions_to_qpus, part_sizes, quotient, cloud, candidates) == expected
    for _ in range(2):  # the second call finds the topology centre cached
        assert outcome(
            map_partitions_to_qpus, part_sizes, quotient, cloud, candidates,
            context=context, order=stored,
        ) == expected

    # Inside a what-if block the availability map is the block's own.
    filler = data.draw(st.sampled_from(sorted(cloud.active_jobs()) or [None]))
    if filler is not None:
        with cloud.preview_without(filler):
            assert outcome(
                map_partitions_to_qpus, part_sizes, quotient, cloud, candidates
            ) == outcome(
                ref_map_partitions_to_qpus, part_sizes, quotient, cloud, candidates
            )
        assert outcome(
            map_partitions_to_qpus, part_sizes, quotient, cloud, candidates
        ) == expected


@pytest.mark.parametrize(
    "labels, center",
    [
        ([9, 10], 10),  # a tied pair: str order picks "10" before "9"
        ([2, 11, 30], 11),  # a path: the middle part is the unique centre
        ([5, 12, 21, 3], 12),  # a 4-cycle: every part ties, "12" sorts first
    ],
)
def test_tied_eccentricities_follow_str_order(labels, center):
    circuit = QuantumCircuit(len(labels), name="ties")
    edges = list(zip(range(len(labels) - 1), range(1, len(labels))))
    if len(labels) == 4:
        edges.append((3, 0))
    for a, b in edges:
        circuit.cx(a, b)
    assignment = {qubit: label for qubit, label in enumerate(labels)}
    context, cached, quotient, num_parts = stored_entry(circuit, assignment)
    stored = context.part_order(circuit, num_parts, IMBALANCE, quotient)
    assert stored[0] == center
    assert list(stored) == ref_mapping_order(ref_part_sizes(cached), quotient)


def test_uncached_quotient_has_no_stored_order():
    circuit = QuantumCircuit(2, name="pair")
    circuit.cx(0, 1)
    context, cached, quotient, num_parts = stored_entry(circuit, {0: 0, 1: 1})
    fresh = context.quotient(circuit, dict(cached), num_parts, IMBALANCE)
    assert fresh == quotient and fresh is not quotient
    assert context.part_order(circuit, num_parts, IMBALANCE, fresh) is None
    assert context.part_order(circuit, num_parts + 1, IMBALANCE, quotient) is None


# ----------------------------------------------------------------------
# The anchor-burst shape: ghz_n51 and ghz_n9 on a fragmented 6-QPU line
# ----------------------------------------------------------------------
def anchor_burst_cloud(used: List[int]) -> QuantumCloud:
    cloud = QuantumCloud(
        CloudTopology.line(6),
        computing_qubits_per_qpu=10,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )
    for qpu_id, taken in enumerate(used):
        if taken:
            cloud.admit(f"held-{qpu_id}", {q: qpu_id for q in range(taken)})
    return cloud


#: Computing qubits held on each QPU before the placement.  Every state
#: leaves too few free qubits on any one QPU for the single-QPU fast path
#: but enough in total, so each placement runs Algorithm 2; some states
#: place the circuit and some end in a ``MappingError``.
FRAGMENTS = {
    "ghz_n51": [
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 0, 1, 0, 1, 0],
        [1, 2, 1, 2, 1, 2],
        [2, 1, 3, 1, 1, 1],
        [0, 4, 0, 0, 4, 0],
    ],
    "ghz_n9": [
        [9, 2, 4, 2, 9, 2],
        [5, 6, 5, 6, 5, 6],
        [7, 7, 7, 7, 7, 7],
        [9, 9, 9, 9, 5, 5],
        [9, 9, 9, 9, 9, 6],
        [8, 9, 8, 9, 8, 9],
    ],
}


def place_outcome(circuit, cloud, context):
    try:
        placement = CloudQCPlacement(
            imbalance_factors=(0.05, 0.30), max_extra_parts=2
        ).place(circuit, cloud, context=context)
    except MappingError as exc:
        return ("error", str(exc))
    return ("ok", list(placement.mapping.items()), placement.score, placement.metadata)


@pytest.mark.parametrize("name", ["ghz_n51", "ghz_n9"])
def test_warm_context_place_matches_no_context(name):
    circuit = get_circuit(name)
    context = PlacementContext()
    outcomes = []
    for _ in range(2):  # the second pass reads every stored order
        for used in FRAGMENTS[name]:
            warm = place_outcome(circuit, anchor_burst_cloud(used), context)
            assert warm == place_outcome(circuit, anchor_burst_cloud(used), None)
            outcomes.append(warm[0])
    assert {"ok", "error"} == set(outcomes)
