"""Public facade of the CloudQC reproduction."""

from .framework import CircuitOutcome, CloudQCFramework

__all__ = [
    "CircuitOutcome",
    "CloudQCFramework",
]
