"""The quantum cloud: a set of QPUs bound to a network topology.

``QuantumCloud`` is the resource-management substrate every other layer builds
on.  It tracks per-QPU computing-qubit usage, answers the
"cloud status" queries the controller and placement algorithms need (Fig. 4),
and exposes the weighted QPU graph that community detection runs on.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import networkx as nx

from .qpu import QPU, ResourceError
from .topology import CloudTopology


class PlacementError(RuntimeError):
    """Raised when a qubit-to-QPU mapping cannot be admitted by the cloud."""


class QuantumCloud:
    """A multi-tenant cluster of QPUs connected by quantum links."""

    #: The fleet is serialized externally by the simulator's
    #: ``_capture_cloud`` under these keys (detlint CKPT001 enforces that
    #: every other attribute is excluded below with a reason).
    _CHECKPOINT_KEYS = ("version_base", "qpus")

    _CHECKPOINT_EXCLUDE = {
        "topology": "immutable topology object from the run config; a resume rebuilds the cloud from the fingerprint",
        "epr_success_probability": "immutable config scalar; rebuilt from the run fingerprint",
        "_resource_graph_cache": "version-keyed cache; invalidated to None on restore and rebuilt lazily",
        "_available_cache": "version-keyed cache; invalidated to None on restore and rebuilt lazily",
    }

    def __init__(
        self,
        topology: CloudTopology,
        computing_qubits_per_qpu: int = 20,
        communication_qubits_per_qpu: int = 5,
        epr_success_probability: float = 0.3,
        qpus: Optional[Mapping[int, QPU]] = None,
    ) -> None:
        if not 0.0 < epr_success_probability <= 1.0:
            raise ValueError("EPR success probability must lie in (0, 1]")
        self.topology = topology
        self.epr_success_probability = float(epr_success_probability)
        # Version-keyed caches for the placement fast path: both are rebuilt
        # lazily whenever ``resource_version`` moves (see docs/architecture.md,
        # "Placement fast path").
        self._resource_graph_cache: Optional[Tuple[int, nx.Graph]] = None
        self._available_cache: Optional[Tuple[int, Mapping[int, int]]] = None
        # Membership epoch: bumped so resource_version stays strictly
        # increasing across fleet changes (see ``resource_version``).
        self._version_base: int = 0
        if qpus is not None:
            # Membership may be a *subset* of the topology (standby QPUs wait
            # off-fleet until a join), but never reference unknown nodes.
            unknown = set(qpus) - set(topology.qpu_ids)
            if unknown:
                raise ValueError(f"QPU objects for unknown topology nodes {unknown}")
            if not qpus:
                raise ValueError("cloud needs at least one member QPU")
            self.qpus: Dict[int, QPU] = {
                qpu_id: qpus[qpu_id] for qpu_id in sorted(qpus)
            }
        else:
            self.qpus = {
                qpu_id: QPU(
                    qpu_id=qpu_id,
                    computing_capacity=computing_qubits_per_qpu,
                    communication_capacity=communication_qubits_per_qpu,
                )
                for qpu_id in topology.qpu_ids
            }

    # ------------------------------------------------------------------
    # Capacity queries (the "cloud status" input of Fig. 4)
    # ------------------------------------------------------------------
    @property
    def num_qpus(self) -> int:
        return len(self.qpus)

    @property
    def qpu_ids(self) -> List[int]:
        return sorted(self.qpus)

    def qpu(self, qpu_id: int) -> QPU:
        return self.qpus[qpu_id]

    def total_computing_capacity(self) -> int:
        # detlint: ignore[DET003] integer capacity sum is order-insensitive
        return sum(q.computing_capacity for q in self.qpus.values())

    def total_computing_available(self) -> int:
        # detlint: ignore[DET003] integer capacity sum is order-insensitive
        return sum(q.computing_available for q in self.qpus.values())

    def total_communication_capacity(self) -> int:
        # detlint: ignore[DET003] integer capacity sum is order-insensitive
        return sum(q.communication_capacity for q in self.qpus.values())

    @property
    def resource_version(self) -> int:
        """Monotonic version of the computing-qubit state.

        Bumped by every effective ``admit``/``release`` (it sums the per-QPU
        mutation counters, so direct QPU mutation is covered too).  Placement
        caches key cloud-side results by this number: equal versions imply an
        identical availability map, so a cached ``resource_graph`` / community
        / QPU-set result may be reused verbatim.

        Fleet membership changes fold in through ``_version_base``: removing
        a QPU subtracts its counter from the sum, so without the epoch the
        version could go *backwards* (or collide with a pre-change value
        while the availability map differs).  ``add_qpu``/``remove_qpu``
        advance the epoch so any fleet change strictly increases the version.
        """
        # detlint: ignore[DET003] integer version counters; sum is order-insensitive
        return self._version_base + sum(
            q.computing_version for q in self.qpus.values()
        )

    def available_computing(self) -> Mapping[int, int]:
        """Free computing qubits per member QPU, as a read-only view.

        The map is built once per :attr:`resource_version` and the same view
        is returned until the version moves; a caller that draws it down
        while planning copies it first (``map_partitions_to_qpus`` does).
        """
        version = self.resource_version
        cached = self._available_cache
        if cached is None or cached[0] != version:
            cached = self._available_cache = (
                version,
                MappingProxyType(
                    {qpu_id: q.computing_available for qpu_id, q in self.qpus.items()}
                ),
            )
        return cached[1]

    def min_available_computing(self) -> int:
        """Smallest per-QPU availability: Algorithm 1's single-QPU fast path test."""
        return min(q.computing_available for q in self.qpus.values())

    def max_available_computing(self) -> int:
        return max(q.computing_available for q in self.qpus.values())

    def remaining_qubits(self) -> int:
        """Sum of ``Rem(V_i)`` (objective 2 of the placement formulation)."""
        # detlint: ignore[DET003] integer qubit counts; sum is order-insensitive
        return sum(q.remaining for q in self.qpus.values())

    def utilization(self) -> float:
        capacity = self.total_computing_capacity()
        if capacity == 0:
            return 0.0
        return 1.0 - self.total_computing_available() / capacity

    def distance(self, a: int, b: int) -> int:
        """Communication cost ``C_ij`` between two QPUs (shortest-path hops)."""
        return self.topology.distance(a, b)

    def can_fit(self, qubit_demand: Mapping[int, int]) -> bool:
        """Whether the given per-QPU computing-qubit demand fits right now."""
        return all(
            self.qpus[qpu_id].computing_available >= amount
            for qpu_id, amount in qubit_demand.items()
        )

    def fits_anywhere(self, num_qubits: int) -> Optional[int]:
        """A QPU that can hold the whole circuit locally, or ``None``.

        Prefers the *tightest* fit so large QPU holes are preserved for big
        future jobs (the "remaining resource" concern of Sec. IV-A).
        """
        candidates = [
            (q.computing_available, qpu_id)
            for qpu_id, q in self.qpus.items()
            if q.computing_available >= num_qubits
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    # ------------------------------------------------------------------
    # Admission / release of placements
    # ------------------------------------------------------------------
    def admit(self, job_id: str, placement: Mapping[int, int]) -> None:
        """Reserve computing qubits for ``placement`` (qubit -> QPU).

        The reservation is atomic: if any QPU lacks capacity nothing is
        allocated and :class:`PlacementError` is raised.
        """
        demand: Dict[int, int] = {}
        for qpu_id in placement.values():
            if qpu_id not in self.qpus:
                raise PlacementError(f"placement references unknown QPU {qpu_id}")
            demand[qpu_id] = demand.get(qpu_id, 0) + 1
        if not self.can_fit(demand):
            raise PlacementError(
                f"job {job_id}: demand {demand} exceeds available computing qubits"
            )
        for qpu_id, amount in demand.items():
            self.qpus[qpu_id].allocate_computing(job_id, amount)

    def release(self, job_id: str) -> int:
        """Free every computing qubit held by ``job_id``; returns the total freed."""
        # detlint: ignore[DET003] integer qubit counts; sum is order-insensitive (release order does not matter)
        return sum(q.release_computing(job_id) for q in self.qpus.values())

    @contextmanager
    def preview_without(self, job_id: str) -> Iterator["QuantumCloud"]:
        """What-if view of the cloud with ``job_id``'s qubits released.

        Inside the block the job's computing qubits are genuinely free, so
        placement algorithms can explore a re-placement (migration) against
        the real object.  On exit the reservation, the per-QPU mutation
        counters, and the version-keyed caches are all restored, so an
        uncommitted exploration leaves :attr:`resource_version` -- and with
        it every failure signature and placement cache keyed by it --
        untouched.

        Because the in-block versions are rolled back and may recur later
        with a *different* availability map, callers must not let any
        version-keyed cache observe the block (pass ``context=None`` to
        placement attempts) and must not mutate the cloud inside it.
        """
        freed = {
            qpu_id: qpu.computing_held_by(job_id)
            for qpu_id, qpu in self.qpus.items()
            if qpu.computing_held_by(job_id) > 0
        }
        counters = {
            qpu_id: qpu.computing_version for qpu_id, qpu in self.qpus.items()
        }
        graph_cache = self._resource_graph_cache
        available_cache = self._available_cache
        self.release(job_id)
        try:
            yield self
        finally:
            for qpu_id, amount in freed.items():
                self.qpus[qpu_id].allocate_computing(job_id, amount)
            for qpu_id, qpu in self.qpus.items():
                # Private by convention, but the cloud owns its QPUs: the
                # counters must return to their pre-preview values so equal
                # versions keep implying equal availability maps.
                qpu._computing_version = counters[qpu_id]
            self._resource_graph_cache = graph_cache
            self._available_cache = available_cache

    # ------------------------------------------------------------------
    # Fleet membership (elastic fleet: joins, drains, failures)
    # ------------------------------------------------------------------
    def _bump_membership_epoch(self, version_before: int) -> None:
        """Advance the epoch so the post-change version strictly increases."""
        # detlint: ignore[DET003] integer version counters; sum is order-insensitive
        counters = sum(q.computing_version for q in self.qpus.values())
        self._version_base = max(
            self._version_base, version_before + 1 - counters
        )
        self._resource_graph_cache = None
        self._available_cache = None

    def add_qpu(self, qpu: QPU) -> None:
        """Bring a QPU into the fleet (a join or a recovery).

        The QPU id must name a node of the static topology -- the network
        wiring of the datacenter never changes, only which QPUs are online --
        and must not already be a member.  Strictly increases
        :attr:`resource_version` and invalidates the placement caches.
        """
        if qpu.qpu_id in self.qpus:
            raise ValueError(f"QPU {qpu.qpu_id} is already a fleet member")
        if qpu.qpu_id not in self.topology.graph:
            raise ValueError(
                f"QPU {qpu.qpu_id} is not a node of the cloud topology"
            )
        before = self.resource_version
        self.qpus[qpu.qpu_id] = qpu
        self.qpus = {qpu_id: self.qpus[qpu_id] for qpu_id in sorted(self.qpus)}
        self._bump_membership_epoch(before)

    def remove_qpu(self, qpu_id: int) -> QPU:
        """Take a QPU out of the fleet (a drain completion or a failure).

        The QPU must be idle -- the caller (controller / fault layer) is
        responsible for migrating or requeueing every job that holds qubits
        on it first -- and must not be the last member.  Returns the removed
        QPU so a later recovery can re-add it with the same capacities.
        Strictly increases :attr:`resource_version`.
        """
        qpu = self.qpus.get(qpu_id)
        if qpu is None:
            raise KeyError(f"QPU {qpu_id} is not a fleet member")
        if qpu.computing_used:
            raise ResourceError(
                f"QPU {qpu_id} still holds computing qubits for jobs "
                f"{sorted(qpu.jobs)}; evict them before removal"
            )
        if len(self.qpus) == 1:
            raise ValueError("cannot remove the last QPU in the fleet")
        before = self.resource_version
        del self.qpus[qpu_id]
        self._bump_membership_epoch(before)
        return qpu

    @contextmanager
    def without_qpu(self, qpu_id: int) -> Iterator["QuantumCloud"]:
        """Temporarily hide a member QPU (drain-migration exploration).

        Inside the block the QPU is not a member, so placement algorithms
        exploring a migration target cannot land qubits on it.  The caches
        are cleared on entry and restored on exit; the epoch is untouched, so
        like :meth:`preview_without` this must only wrap uncommitted
        exploration (pass ``context=None`` to placement attempts).
        """
        if qpu_id not in self.qpus:
            raise KeyError(f"QPU {qpu_id} is not a fleet member")
        qpu = self.qpus.pop(qpu_id)
        graph_cache = self._resource_graph_cache
        available_cache = self._available_cache
        self._resource_graph_cache = None
        self._available_cache = None
        try:
            yield self
        finally:
            self.qpus[qpu_id] = qpu
            self.qpus = {
                member: self.qpus[member] for member in sorted(self.qpus)
            }
            self._resource_graph_cache = graph_cache
            self._available_cache = available_cache

    # ------------------------------------------------------------------
    # Per-QPU EPR probability (calibration windows)
    # ------------------------------------------------------------------
    def qpu_epr_probability(self, qpu_id: int) -> Optional[float]:
        """Per-QPU EPR override, or ``None`` (non-members included).

        ``None`` means "cloud-wide default"; off-fleet topology nodes keep
        relaying entanglement swaps at the default (the repeater function of
        a drained QPU stays up -- only its computing side leaves the fleet).
        """
        qpu = self.qpus.get(qpu_id)
        return None if qpu is None else qpu.epr_success_probability

    def set_qpu_epr_probability(
        self, qpu_id: int, probability: Optional[float]
    ) -> None:
        """Set (or with ``None`` clear) a member QPU's EPR override."""
        if probability is not None and not 0.0 < probability <= 1.0:
            raise ValueError("EPR success probability must lie in (0, 1]")
        qpu = self.qpus.get(qpu_id)
        if qpu is None:
            raise KeyError(f"QPU {qpu_id} is not a fleet member")
        qpu.epr_success_probability = (
            None if probability is None else float(probability)
        )

    def active_jobs(self) -> List[str]:
        jobs = set()
        for qpu in self.qpus.values():
            jobs |= qpu.jobs
        return sorted(jobs)

    # ------------------------------------------------------------------
    # Graph views used by placement
    # ------------------------------------------------------------------
    def resource_graph(self) -> nx.Graph:
        """Topology annotated with availability, for community detection.

        Node weight = available computing qubits; edge weight blends link
        presence with the endpoint availability so communities are both well
        connected and resource rich (Sec. V-B, "Finding feasible QPU sets").

        The graph is cached per :attr:`resource_version` and the *same object*
        is returned until the cloud mutates, so treat it as read-only; copy it
        before editing node/edge attributes.
        """
        version = self.resource_version
        if (
            self._resource_graph_cache is not None
            and self._resource_graph_cache[0] == version
        ):
            return self._resource_graph_cache[1]
        graph = nx.Graph()
        for qpu_id, qpu in self.qpus.items():
            graph.add_node(
                qpu_id,
                available=qpu.computing_available,
                capacity=qpu.computing_capacity,
            )
        for a, b in self.topology.links():
            if a not in self.qpus or b not in self.qpus:
                # Links touching off-fleet nodes carry no placement value.
                continue
            availability = (
                self.qpus[a].computing_available + self.qpus[b].computing_available
            )
            graph.add_edge(a, b, weight=1.0 + float(availability))
        self._resource_graph_cache = (version, graph)
        return graph

    def clone_empty(self) -> "QuantumCloud":
        """A fresh cloud with the same topology, membership and capacities
        (including per-QPU EPR overrides) but no allocations."""
        qpus = {
            qpu_id: QPU(
                qpu_id=qpu_id,
                computing_capacity=qpu.computing_capacity,
                communication_capacity=qpu.communication_capacity,
                epr_success_probability=qpu.epr_success_probability,
            )
            for qpu_id, qpu in self.qpus.items()
        }
        return QuantumCloud(
            self.topology,
            epr_success_probability=self.epr_success_probability,
            qpus=qpus,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCloud(qpus={self.num_qpus}, "
            f"available={self.total_computing_available()}/"
            f"{self.total_computing_capacity()})"
        )
