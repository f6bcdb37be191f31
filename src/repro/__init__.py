"""CloudQC: a network-aware framework for multi-tenant distributed quantum computing.

A from-scratch Python reproduction of the ICDCS 2025 paper.  The package is
organised bottom-up:

* :mod:`repro.circuits` -- gates, circuits, interaction graphs, and generators
  for every benchmark workload in the paper.
* :mod:`repro.cloud` -- QPUs, quantum-link topologies, the multi-tenant cloud
  resource manager, jobs, and the controller.
* :mod:`repro.partition` / :mod:`repro.community` -- the graph-partitioning and
  community-detection substrates (METIS and Louvain replacements).
* :mod:`repro.placement` -- CloudQC placement (Algorithms 1 and 2), CloudQC-BFS
  and the Random / SA / GA baselines.
* :mod:`repro.scheduling` / :mod:`repro.network` / :mod:`repro.sim` -- remote
  DAGs, priority-based EPR allocation, the probabilistic quantum-network model,
  and the discrete-event execution simulator.
* :mod:`repro.multitenant` -- batch manager, workload mixes, and the
  multi-tenant cluster simulator.
* :mod:`repro.core` -- the :class:`~repro.core.CloudQCFramework` facade.
"""

from .core import CircuitOutcome, CloudQCFramework
from .circuits import QuantumCircuit
from .cloud import CloudTopology, QuantumCloud
from .placement import Placement

__version__ = "1.0.0"

__all__ = [
    "CircuitOutcome",
    "CloudQCFramework",
    "CloudTopology",
    "Placement",
    "QuantumCircuit",
    "QuantumCloud",
    "__version__",
]
