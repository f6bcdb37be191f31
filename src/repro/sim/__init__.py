"""Simulation substrate: latency model, event loop, network executor."""

from .latency import DEFAULT_LATENCY, LatencyModel
from .engine import EventHandle, EventLoop, SimulationError
from .front_layer import FrontLayer, run_epr_round
from .executor import (
    ExecutionError,
    JobExecutionResult,
    NetworkExecutor,
    ScheduledJob,
    local_execution_time,
    mean_completion_time,
)

__all__ = [
    "DEFAULT_LATENCY",
    "EventHandle",
    "EventLoop",
    "ExecutionError",
    "FrontLayer",
    "JobExecutionResult",
    "LatencyModel",
    "NetworkExecutor",
    "ScheduledJob",
    "SimulationError",
    "local_execution_time",
    "mean_completion_time",
    "run_epr_round",
]
