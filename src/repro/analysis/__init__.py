"""Analysis layer: experiment runners and table/series formatting."""

from .experiments import (
    default_cloud,
    default_placement_algorithms,
    default_schedulers,
    multitenant_jct_distribution,
    multitenant_methods,
    scheduling_comparison,
    single_circuit_placement,
    sweep_communication_qubits,
    sweep_computing_qubits,
    sweep_epr_probability,
)
from .tables import format_cdf_summary, format_series, format_table

__all__ = [
    "default_cloud",
    "default_placement_algorithms",
    "default_schedulers",
    "format_cdf_summary",
    "format_series",
    "format_table",
    "multitenant_jct_distribution",
    "multitenant_methods",
    "scheduling_comparison",
    "single_circuit_placement",
    "sweep_communication_qubits",
    "sweep_computing_qubits",
    "sweep_epr_probability",
]
