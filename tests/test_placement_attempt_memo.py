"""The whole-attempt memo of ``PlacementContext`` is exact.

``CloudQCPlacement`` and ``CloudQCBFSPlacement`` memoize a whole attempt in
the context they are given, keyed by the placer's type and parameters, the
circuit, the cloud and each member QPU's ``(id, free computing qubits,
computing capacity)`` in ``cloud.qpus`` order.

Hypothesis draws a line, ring, grid or random cloud of up to 12 QPUs with
unequal computing capacities, and a circuit.  One shared context then sees a
sequence of states:

* filler jobs are admitted and released, so a state recurs at a new
  ``resource_version``;
* one QPU first holds a filler, is emptied, removed, and re-added with a
  capacity equal to the free count it had while it held the filler, so a
  state recurs in free counts but not in capacities.

At every state three placers share the context: CloudQC with default
parameters, CloudQC with other ``imbalance_factors`` and ``max_extra_parts``,
and CloudQC-BFS.  Each attempt must equal a fresh attempt without a context
on the same state (the mapping items in order, the score, the metadata and
the algorithm, or the ``MappingError`` message).  It must count as exactly
one hit when its placer, circuit and state recur, and as a miss otherwise,
with one memo entry per distinct key.  Every returned placement is then
mutated, which must never change a later hit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.cloud import QPU, CloudTopology, QuantumCloud
from repro.placement import (
    CloudQCBFSPlacement,
    CloudQCPlacement,
    MappingError,
    PlacementContext,
)

PLACERS = (
    CloudQCPlacement(),
    CloudQCPlacement(imbalance_factors=(0.15, 0.5), max_extra_parts=1),
    CloudQCBFSPlacement(),
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def clouds(draw) -> QuantumCloud:
    kind = draw(st.sampled_from(("line", "ring", "grid", "random")))
    if kind == "grid":
        topology = CloudTopology.grid(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    elif kind == "random":
        topology = CloudTopology.random(
            draw(st.integers(3, 12)),
            edge_probability=draw(st.sampled_from((0.3, 0.6))),
            seed=draw(st.integers(0, 1000)),
        )
    else:
        topology = getattr(CloudTopology, kind)(draw(st.integers(3, 12)))
    ids = topology.qpu_ids
    capacities = draw(
        st.lists(st.integers(2, 8), min_size=len(ids), max_size=len(ids)).filter(
            lambda values: len(set(values)) > 1
        )
    )
    return QuantumCloud(
        topology,
        qpus={
            qpu_id: QPU(qpu_id, computing_capacity=capacity, communication_capacity=2)
            for qpu_id, capacity in zip(ids, capacities)
        },
    )


@st.composite
def circuits(draw) -> QuantumCircuit:
    size = draw(st.integers(4, 12))
    circuit = QuantumCircuit(size, name="memo")
    for _ in range(draw(st.integers(1, 20))):
        a = draw(st.integers(0, size - 1))
        if draw(st.integers(0, 3)) == 0:
            circuit.h(a)
        else:
            circuit.cx(a, (a + draw(st.integers(1, size - 1))) % size)
    return circuit


# ----------------------------------------------------------------------
# Attempts
# ----------------------------------------------------------------------
def attempt(placer, circuit, cloud, context):
    """``(outcome, placement)``: the placement's fields, or the error message."""
    try:
        placement = placer.place(circuit, cloud, context=context)
    except MappingError as exc:
        return ("error", str(exc)), None
    return (
        "ok",
        list(placement.mapping.items()),
        placement.score,
        dict(placement.metadata),
        placement.algorithm,
    ), placement


class _Run:
    """One shared context, the keys it has seen, and the checks per state."""

    def __init__(self, cloud: QuantumCloud, circuit: QuantumCircuit) -> None:
        self.cloud = cloud
        self.circuit = circuit
        self.context = PlacementContext()
        self.seen: set = set()
        self.fillers: Dict[str, int] = {}
        self.recurred = 0

    def state(self):
        return tuple(
            (qpu_id, qpu.computing_available, qpu.computing_capacity)
            for qpu_id, qpu in self.cloud.qpus.items()
        )

    def check(self) -> None:
        state = self.state()
        for placer in PLACERS:
            key = (
                type(placer),
                placer.imbalance_factors,
                placer.max_extra_parts,
                state,
            )
            hits, misses = self.context.hits, self.context.misses
            shared, placement = attempt(placer, self.circuit, self.cloud, self.context)
            counted = (self.context.hits - hits, self.context.misses - misses)
            assert shared == attempt(placer, self.circuit, self.cloud, None)[0]
            if key in self.seen:
                assert counted == (1, 0), "a recurring state must be one hit"
                self.recurred += 1
            else:
                assert counted[1] >= 1, "a new state must miss"
                self.seen.add(key)
            assert self.context.stats()["attempts"] == len(self.seen)
            if placement is not None:
                # The caller owns what it gets back: no later hit may see this.
                placement.mapping[0] = -1
                placement.metadata["score"] = -1.0
                placement.score = -1.0
                placement.algorithm = "mutated"

    def admit(self, qpu_id: int, amount: int) -> str:
        name = f"filler-{len(self.fillers)}-{qpu_id}"
        self.cloud.admit(name, {qubit: qpu_id for qubit in range(amount)})
        self.fillers[name] = qpu_id
        return name

    def release(self, name: str) -> None:
        self.cloud.release(name)
        del self.fillers[name]


def free_qpus(cloud: QuantumCloud, exclude: Optional[int] = None) -> List[int]:
    return [
        qpu_id
        for qpu_id, qpu in cloud.qpus.items()
        if qpu.computing_available > 0 and qpu_id != exclude
    ]


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(cloud=clouds(), circuit=circuits(), data=st.data())
def test_attempt_memo_equals_fresh_attempts(cloud, circuit, data):
    run = _Run(cloud, circuit)
    moved = data.draw(st.sampled_from(cloud.qpu_ids), label="moved QPU")
    capacity = cloud.qpu(moved).computing_capacity

    # Fillers on the other QPUs fragment the cloud.
    for _ in range(data.draw(st.integers(0, 3), label="fillers")):
        candidates = free_qpus(cloud, exclude=moved)
        if candidates:
            qpu_id = data.draw(st.sampled_from(candidates))
            free = cloud.qpu(qpu_id).computing_available
            run.admit(qpu_id, data.draw(st.integers(1, free)))
    run.check()

    # Admit-then-release rounds: each release returns to a state already
    # seen, at a new resource version.
    for _ in range(data.draw(st.integers(1, 2), label="rounds")):
        candidates = free_qpus(cloud, exclude=moved)
        if not candidates:
            break
        qpu_id = data.draw(st.sampled_from(candidates))
        free = cloud.qpu(qpu_id).computing_available
        name = run.admit(qpu_id, data.draw(st.integers(1, free)))
        run.check()
        run.release(name)
        run.check()

    # The moved QPU holds a filler, leaving ``held_free`` free qubits ...
    held_free = data.draw(st.integers(1, capacity - 1), label="held free")
    name = run.admit(moved, capacity - held_free)
    run.check()
    run.release(name)
    run.check()
    # ... then leaves the fleet and rejoins with ``held_free`` qubits, all
    # free: every free count matches the held state, the capacity does not.
    run.cloud.remove_qpu(moved)
    run.check()
    run.cloud.add_qpu(QPU(moved, computing_capacity=held_free, communication_capacity=2))
    run.check()
    assert run.recurred >= len(PLACERS)
