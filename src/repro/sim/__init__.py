"""Simulation substrate: latency model, event loop, network executor."""

from .latency import DEFAULT_LATENCY, LatencyModel, local_execution_time
from .engine import EventHandle, EventLoop, SimulationError
from .front_layer import FrontLayer, run_epr_round
from .executor import JobExecutionResult, NetworkExecutor

__all__ = [
    "DEFAULT_LATENCY",
    "EventHandle",
    "EventLoop",
    "FrontLayer",
    "JobExecutionResult",
    "LatencyModel",
    "NetworkExecutor",
    "SimulationError",
    "local_execution_time",
    "run_epr_round",
]
