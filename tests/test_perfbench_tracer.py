"""The perfbench layer tracer still installs on this tree.

``perfbench/tracer.py`` wraps simulator entry points by name
(``EventLoop.schedule``, ``TraceReader.__iter__``,
``cluster_sim.write_snapshot``, ``cluster_sim.local_execution_time``, ...)
and changes only together with the benchmark.  Deleting or renaming one of
those names must fail here, not only in the traced perfbench runs.
"""

import importlib.util
import pathlib

from repro.multitenant import TraceReader, cluster_sim
from repro.sim import EventLoop


def _load_tracer_module():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_originals():
    originals = {
        (EventLoop, "step"): vars(EventLoop)["step"],
        (TraceReader, "__iter__"): vars(TraceReader)["__iter__"],
        (cluster_sim, "write_snapshot"): vars(cluster_sim)["write_snapshot"],
    }
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, name
