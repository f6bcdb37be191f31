"""Probabilistic EPR-pair generation model (Sec. III, "quantum links").

EPR generation over a quantum link succeeds with a fixed per-attempt
probability (0.3 by default, following the paper and the experimental
literature it cites).  A remote gate between QPUs that are not directly linked
needs entanglement swapping along the shortest path, so its end-to-end success
probability is the product of the per-hop probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..cloud import CloudTopology


@dataclass(frozen=True)
class EPRModel:
    """End-to-end EPR generation statistics for a cloud topology.

    ``qpu_probability``, when given, supplies a per-QPU success-probability
    override (``None`` -> use ``success_probability``); a link without a
    per-link attribute then runs at the minimum of its endpoints' values.
    With no overrides set the model is bit-identical to the plain
    cloud-wide constant.

    :meth:`pair_success_probability` and :meth:`round_success_probability`
    resolve the path live on every call.  :meth:`sample_round` reads a
    table keyed by the ordered QPU pair instead, filled on a miss from
    :meth:`pair_success_probability`, so each entry is the float the live
    walk returned when it was filled.  The table goes stale when a per-QPU
    override, the fleet's membership or a link attribute changes; whoever
    makes such a change calls :meth:`clear_pair_table` before the next
    sample (the cluster simulator does at every calibration start and end
    and every fleet change).
    """

    topology: CloudTopology
    success_probability: float = 0.3
    qpu_probability: Optional[Callable[[int], Optional[float]]] = None
    _pair_table: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError("EPR success probability must lie in (0, 1]")

    def pair_success_probability(self, qpu_a: int, qpu_b: int) -> float:
        """Probability that one end-to-end entanglement attempt succeeds."""
        if qpu_a == qpu_b:
            return 1.0
        return self.topology.path_success_probability(
            qpu_a, qpu_b, self.success_probability, self.qpu_probability
        )

    def round_success_probability(
        self, qpu_a: int, qpu_b: int, parallel_attempts: int
    ) -> float:
        """Probability that at least one of ``parallel_attempts`` pairs succeeds."""
        if parallel_attempts < 0:
            raise ValueError("parallel attempts cannot be negative")
        if parallel_attempts == 0:
            return 0.0
        p = self.pair_success_probability(qpu_a, qpu_b)
        return 1.0 - (1.0 - p) ** parallel_attempts

    def expected_rounds(self, qpu_a: int, qpu_b: int, parallel_attempts: int) -> float:
        """Expected number of rounds until success with the given redundancy."""
        probability = self.round_success_probability(qpu_a, qpu_b, parallel_attempts)
        if probability <= 0.0:
            return float("inf")
        return 1.0 / probability

    def sample_round(
        self,
        qpu_a: int,
        qpu_b: int,
        parallel_attempts: int,
        rng: np.random.Generator,
    ) -> bool:
        """Sample whether an allocation of ``parallel_attempts`` succeeds this round.

        Draws one ``rng.random()`` when ``parallel_attempts`` is positive and
        compares it with ``1 - (1 - p) ** parallel_attempts``, the formula
        of :meth:`round_success_probability`: this runs once per granted
        request per round.  ``p`` is read from the pair table (see the class
        docstring): it is what :meth:`pair_success_probability` returned at
        the pair's first sample since the table was last emptied.
        """
        if parallel_attempts <= 0:
            return False
        p = self._pair_table.get((qpu_a, qpu_b))
        if p is None:
            p = self._pair_table[qpu_a, qpu_b] = self.pair_success_probability(
                qpu_a, qpu_b
            )
        return rng.random() < 1.0 - (1.0 - p) ** parallel_attempts

    def clear_pair_table(self) -> None:
        """Forget every pair probability :meth:`sample_round` has read.

        Call it whenever a resolved link probability can change: a per-QPU
        override set or cleared, a QPU joining or leaving the fleet, or a
        link's ``epr_success_probability`` attribute edited.
        """
        self._pair_table.clear()

    def hops(self, qpu_a: int, qpu_b: int) -> int:
        """Path length used for serial entanglement-swapping latency."""
        if qpu_a == qpu_b:
            return 0
        return self.topology.distance(qpu_a, qpu_b)
