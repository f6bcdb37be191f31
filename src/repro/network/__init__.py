"""Quantum network substrate: probabilistic EPR generation."""

from .epr import EPRModel

__all__ = ["EPRModel"]
