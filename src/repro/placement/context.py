"""Version-keyed memoization for repeated CloudQC placement attempts.

On a busy cloud the streaming simulator re-runs placement for the same pending
job many times, and every ``CloudQCPlacement.place`` call explores a grid of
``(imbalance, num_parts)`` candidates.  From one attempt to the next almost
every input is unchanged: the circuit-side artifacts (the interaction graph's
CSR form, partitions, quotient graphs) never change at all, and the
cloud-side artifacts (resource graph, detected communities, selected QPU sets)
only change when a job is admitted or released.

Every partition and every community detection runs with one seed,
:data:`PLACEMENT_SEED`, so each artifact is a pure function of its inputs
(as METIS, the paper's partitioner, returns one partition per input).
:class:`PlacementContext` memoizes both sides:

* **circuit identity** keys the CSR form of the interaction graph, the
  only form the partitioner and the quotients read, and
  ``(circuit, num_parts, imbalance)`` keys partition assignments and
  quotient graphs.  A quotient's entry also holds Algorithm 2's part order
  (:func:`~repro.placement.mapping.mapping_order`), computed once when the
  entry is made; :meth:`PlacementContext.part_order` reads it back without
  counting a memo lookup.  Circuits are treated as frozen while registered
  with a context (the simulator never mutates a submitted circuit).
* **cloud resource version** (:attr:`repro.cloud.QuantumCloud.resource_version`)
  keys community detection and QPU-set selection: equal versions imply an
  identical availability map, so the cached result is exactly what a fresh
  computation would produce.  Any ``admit``/``release`` bumps the version and
  naturally invalidates every cloud-side entry.

Warm-cache placements are therefore bit-identical to cold-cache placements
-- regression tests pin this.

Cached objects are returned without copying on the hot path; callers must
treat cached graphs/assignments as read-only (the placement pipeline does).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..circuits import InteractionGraph, QuantumCircuit, quotient_adjacency
from ..cloud import QuantumCloud
from ..community import graph_center, louvain_communities, select_qpu_community
from ..partition import CSRGraph, partition_graph
from .mapping import QuotientAdjacency, mapping_order

#: The seed of every ``partition_graph`` and Louvain run.  Fixed before any
#: measurement; never tune it to a workload.
PLACEMENT_SEED = 0


class PlacementContext:
    """Memoizes the circuit-side and cloud-side inputs of placement attempts.

    One context is meant to live for one simulation run (or one experiment
    over a fixed set of circuits); it holds strong references to the circuits
    and clouds it has seen so the identity-based keys stay valid.
    """

    #: Per-cache entry bound.  A long streaming run sees ever more circuits
    #: and resource versions (every admit or release makes one), so the
    #: caches would otherwise grow without bound; when a cache fills up, its
    #: oldest half is dropped (insertion order).  Pruning only ever costs
    #: recomputation -- results are unaffected.
    max_entries: int = 4096

    def __init__(self) -> None:
        # Circuit-side caches, keyed by circuit identity.
        self._circuits: Dict[int, QuantumCircuit] = {}
        self._csr: Dict[int, CSRGraph] = {}
        self._partitions: Dict[Tuple[int, int, float], Dict[int, int]] = {}
        # Each quotient is stored with its Algorithm 2 part order.
        self._quotients: Dict[
            Tuple[int, int, float], Tuple[QuotientAdjacency, Tuple[Hashable, ...]]
        ] = {}
        # Cloud-side caches, keyed by (cloud identity, resource version, ...).
        self._clouds: Dict[int, QuantumCloud] = {}
        self._communities: Dict[Tuple[int, int], List[Set[Hashable]]] = {}
        self._qpu_sets: Dict[Tuple[Any, ...], Tuple[int, ...]] = {}
        # Topology-keyed cache (the topology never mutates, so no version).
        self._topology_centers: Dict[Tuple[int, frozenset], int] = {}
        # Hit/miss accounting for the hot-path benchmark report.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of memo lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "interaction_graphs": len(self._csr),
            "partitions": len(self._partitions),
            "communities": len(self._communities),
            "qpu_sets": len(self._qpu_sets),
        }

    def _store(self, cache: Dict, key: Any, value: Any) -> None:
        """Insert, evicting the oldest half of the cache when it is full."""
        if len(cache) >= self.max_entries:
            for stale in list(cache)[: max(1, len(cache) // 2)]:
                del cache[stale]
        cache[key] = value

    # ------------------------------------------------------------------
    # Circuit-side memoization
    # ------------------------------------------------------------------
    def _circuit_key(self, circuit: QuantumCircuit) -> int:
        key = id(circuit)
        self._circuits.setdefault(key, circuit)
        return key

    def interaction_csr(self, circuit: QuantumCircuit) -> CSRGraph:
        """The CSR form of the circuit's interaction graph (read-only, shared).

        Built once per circuit from a networkx copy of the interaction
        graph: the copy re-adds the edges row by row, so its adjacency order,
        which the CSR rows keep and the partitioner's tie-breaks follow,
        differs from the original graph's.
        """
        key = self._circuit_key(circuit)
        cached = self._csr.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = CSRGraph.from_networkx(
            InteractionGraph.from_circuit(circuit).to_networkx()
        )
        self._csr[key] = graph
        return graph

    def partition(
        self, circuit: QuantumCircuit, num_parts: int, imbalance: float
    ) -> Dict[int, int]:
        """Memoized ``partition_graph`` over the circuit's interaction graph."""
        key = (self._circuit_key(circuit), num_parts, float(imbalance))
        cached = self._partitions.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        assignment = partition_graph(
            self.interaction_csr(circuit),
            num_parts,
            imbalance=imbalance,
            seed=PLACEMENT_SEED,
        )
        self._store(self._partitions, key, assignment)
        return assignment

    def quotient(
        self,
        circuit: QuantumCircuit,
        assignment: Dict[int, int],
        num_parts: int,
        imbalance: float,
    ) -> QuotientAdjacency:
        """Quotient adjacency of a cached partition (same key as the partition).

        ``{part: {other part: crossing two-qubit gates}}``, the input of
        :func:`~repro.placement.map_partitions_to_qpus`.  The cache is
        consulted only when ``assignment`` *is* the object cached by
        :meth:`partition` under the same key -- an externally supplied or
        post-processed assignment always gets a fresh, uncached quotient, so
        the key can never alias a different partition's quotient.
        """
        key = (self._circuit_key(circuit), num_parts, float(imbalance))
        if self._partitions.get(key) is not assignment:
            return self._quotient(circuit, assignment)
        cached = self._quotients.get(key)
        if cached is not None:
            self.hits += 1
            return cached[0]
        self.misses += 1
        quotient = self._quotient(circuit, assignment)
        order = tuple(mapping_order(Counter(assignment.values()), quotient))
        self._store(self._quotients, key, (quotient, order))
        return quotient

    def part_order(
        self,
        circuit: QuantumCircuit,
        num_parts: int,
        imbalance: float,
        quotient: QuotientAdjacency,
    ) -> Optional[Tuple[Hashable, ...]]:
        """Algorithm 2's part order stored with ``quotient``, else ``None``.

        ``None`` unless ``quotient`` *is* the object :meth:`quotient` cached
        under the same key; the order is then :func:`mapping_order` of the
        cached partition's part sizes and that quotient.  Reading it is not
        a memo lookup: ``hits`` and ``misses`` do not move.
        """
        cached = self._quotients.get((id(circuit), num_parts, float(imbalance)))
        if cached is None or cached[0] is not quotient:
            return None
        return cached[1]

    def _quotient(
        self, circuit: QuantumCircuit, assignment: Dict[int, int]
    ) -> QuotientAdjacency:
        # The CSR rows follow the networkx copy's adjacency order, but a copy
        # keeps the original's edge order (row u, neighbours v >= u), so this
        # equals quotient_adjacency over the interaction graph's own edges,
        # row order included.
        return quotient_adjacency(self.interaction_csr(circuit).edges(), assignment)

    # ------------------------------------------------------------------
    # Cloud-side memoization (invalidated by resource_version bumps)
    # ------------------------------------------------------------------
    def _cloud_key(self, cloud: QuantumCloud) -> int:
        key = id(cloud)
        self._clouds.setdefault(key, cloud)
        return key

    def communities(self, cloud: QuantumCloud) -> List[Set[Hashable]]:
        """Louvain communities of the cloud's resource graph.

        Keyed by ``(cloud, resource_version)``: community detection is a
        pure function of the resource graph, and the resource graph is a
        pure function of the resource version.
        """
        key = (self._cloud_key(cloud), cloud.resource_version)
        cached = self._communities.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        communities = louvain_communities(
            cloud.resource_graph(), seed=PLACEMENT_SEED
        )
        self._store(self._communities, key, communities)
        return communities

    def community_qpu_set(
        self, cloud: QuantumCloud, required_qubits: int, min_qpus: int
    ) -> List[int]:
        """Memoized community-based QPU selection.

        Keyed by ``(cloud, resource_version, required_qubits, min_qpus)``;
        raising selections (``CommunityError``) are not cached -- they
        re-raise identically on recomputation anyway.
        """
        key = (
            "community",
            self._cloud_key(cloud),
            cloud.resource_version,
            required_qubits,
            min_qpus,
        )
        cached = self._qpu_sets.get(key)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        selection = [
            int(qpu)
            for qpu in select_qpu_community(
                cloud.resource_graph(),
                required_qubits,
                min_qpus=min_qpus,
                communities=self.communities(cloud),
            )
        ]
        self._store(self._qpu_sets, key, tuple(selection))
        return selection

    def topology_center(self, cloud: QuantumCloud, candidates) -> int:
        """Memoized ``graph_center`` of a candidate QPU set on the topology.

        The topology never changes, so the center is a pure function of the
        candidate set -- no resource version in the key.  Algorithm 2 asks for
        it on every (imbalance, num_parts) candidate, making it one of the
        hottest calls of the attempt pipeline.
        """
        key = (self._cloud_key(cloud), frozenset(candidates))
        cached = self._topology_centers.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        center = int(graph_center(cloud.topology.graph, list(candidates)))
        self._store(self._topology_centers, key, center)
        return center

    def bfs_qpu_set(
        self, cloud: QuantumCloud, required_qubits: int, min_qpus: int
    ) -> List[int]:
        """Memoized BFS QPU selection, keyed like :meth:`community_qpu_set`."""
        from .qpu_selection import bfs_qpu_set  # local import: avoids a cycle

        key = (
            "bfs",
            self._cloud_key(cloud),
            cloud.resource_version,
            required_qubits,
            min_qpus,
        )
        cached = self._qpu_sets.get(key)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        selection = bfs_qpu_set(cloud, required_qubits, min_qpus=min_qpus)
        self._store(self._qpu_sets, key, tuple(selection))
        return selection
