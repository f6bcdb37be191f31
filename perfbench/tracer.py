"""Layer spans recorded from outside the simulator.

:class:`Tracer` wraps the public entry points of each simulator layer --
class methods and the module-level names other modules bound at import time
-- so that every call records one span: layer name, start, end and the span
that was open when it began (its parent).  Nothing under ``src/`` is edited;
:meth:`Tracer.uninstall` puts every original back.

Spans are kept in flat in-memory arrays while the replay runs and written
out once it ends (:meth:`Tracer.write`).  :meth:`Tracer.layer_table` turns
them into per-layer calls, total seconds and self seconds, where a span's
self time is its duration minus the time its child spans cover.  A few
layers also count what they did (requests granted, EPR samples that
succeeded, bytes snapshotted, ...) at the same boundary.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Span names in report order.  Each is a layer boundary; several entry
#: points may share one name (e.g. all five ``Controller`` transitions).
SPAN_NAMES = (
    "sim.engine",
    "multitenant.admission",
    "multitenant.batch_manager.order",
    "placement.place",
    "placement.partition",
    "placement.quotient",
    "placement.community",
    "placement.mapping",
    "placement.scoring",
    "multitenant.preemption",
    "scheduling.allocate",
    "network.epr.sample",
    "network.path_prob",
    "sim.front_layer.requests",
    "scheduling.remote_dag",
    "sim.local_time",
    "sim.executor.execute",
    "cloud.controller",
    "multitenant.telemetry",
    "multitenant.trace.read",
    "multitenant.checkpoint.write",
)

_TELEMETRY_HOOKS = (
    "job_arrived",
    "job_admitted",
    "job_placed",
    "job_preempted",
    "job_requeued",
    "job_migrated",
    "qpu_joined",
    "qpu_failed",
    "qpu_drained",
    "calibration_started",
    "calibration_ended",
    "record_result",
)


def _classes_defining(base: type, method: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``method`` itself."""
    found, todo, seen = [], [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if method in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Tracer:
    """Records spans and counters for one traced replay."""

    def __init__(self) -> None:
        self._name_ids = {name: index for index, name in enumerate(SPAN_NAMES)}
        # One entry per span, appended when the span opens.  A negative name
        # id marks a span nested inside another span of the same name, whose
        # time must not be counted twice in that name's total.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._open = [0] * len(SPAN_NAMES)
        self.counters: Counter = Counter()
        self.contexts: Dict[int, Any] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> Callable:
        name_id = self._name_ids[name]
        clock = time.perf_counter
        stack, open_count = self._stack, self._open
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id if open_count[name_id] == 0 else -1 - name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            open_count[name_id] += 1
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                open_count[name_id] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span_method(self, base: type, method: str, name: str, **hooks) -> None:
        for cls in _classes_defining(base, method):
            self._patch(cls, method, self._wrap(name, vars(cls)[method], **hooks))

    def _span_global(self, module: Any, attr: str, name: str, **hooks) -> None:
        self._patch(module, attr, self._wrap(name, vars(module)[attr], **hooks))

    def _count_method(self, cls: type, method: str, counter: str) -> None:
        original = vars(cls)[method]
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        self._patch(cls, method, counted)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary; undo with :meth:`uninstall`."""
        from repro.cloud import Controller
        from repro.cloud.topology import CloudTopology
        from repro.multitenant import (
            AdmissionPolicy,
            BatchManager,
            PreemptionPolicy,
            PreemptRequest,
            Telemetry,
            TraceCursor,
            TraceReader,
        )
        from repro.multitenant import cluster_sim
        from repro.network import EPRModel
        from repro.placement import PlacementAlgorithm, PlacementContext
        from repro.placement import cloudqc, random_placement
        from repro.scheduling import NetworkScheduler, RemoteDAG
        from repro.sim import EventLoop, FrontLayer, NetworkExecutor, executor

        counters = self.counters

        def count_step(args, kwargs, ran):
            counters["sim.engine.events"] += bool(ran)

        self._span_method(EventLoop, "run", "sim.engine")
        self._span_method(EventLoop, "step", "sim.engine", after=count_step)
        self._count_method(EventLoop, "schedule_at", "sim.engine.scheduled")
        self._count_method(EventLoop, "schedule", "sim.engine.scheduled")

        def count_admit(args, kwargs, admitted):
            counters["admission.admits"] += 1
            counters["admission.rejects"] += not admitted

        self._span_method(
            AdmissionPolicy, "admit", "multitenant.admission", after=count_admit
        )
        self._span_method(
            AdmissionPolicy, "queueing_deadline", "multitenant.admission"
        )

        def count_scanned(args, kwargs, ordered):
            jobs = args[1] if len(args) > 1 else kwargs["jobs"]
            counters["batch_manager.jobs_scanned"] += len(jobs)

        self._span_method(
            BatchManager, "order", "multitenant.batch_manager.order",
            after=count_scanned,
        )

        def count_place(args, kwargs, placement):
            context = args[4] if len(args) > 4 else kwargs.get("context")
            if context is not None:
                self.contexts[id(context)] = context

        def count_place_failure(exc):
            counters["placement.failures"] += 1

        self._span_method(
            PlacementAlgorithm, "place", "placement.place",
            after=count_place, on_error=count_place_failure,
        )
        self._span_method(PlacementContext, "partition", "placement.partition")
        self._span_method(PlacementContext, "quotient", "placement.quotient")
        self._span_method(
            PlacementContext, "community_qpu_set", "placement.community"
        )
        self._span_global(cloudqc, "map_partitions_to_qpus", "placement.mapping")
        self._span_global(cloudqc, "score_mapping", "placement.scoring")
        self._span_global(random_placement, "score_mapping", "placement.scoring")

        def count_decide(args, kwargs, actions):
            counters["preemption.evictions"] += sum(
                isinstance(action, PreemptRequest) for action in actions
            )

        self._span_method(
            PreemptionPolicy, "decide", "multitenant.preemption",
            after=count_decide,
        )
        self._span_method(
            PreemptionPolicy, "rescue_check_time", "multitenant.preemption"
        )

        def count_allocate(args, kwargs, allocation):
            requests = args[1] if len(args) > 1 else kwargs["requests"]
            counters["scheduling.requests"] += len(requests)
            counters["scheduling.granted"] += sum(
                allocation.get(request.op_id, 0) > 0 for request in requests
            )

        self._span_method(
            NetworkScheduler, "allocate", "scheduling.allocate",
            after=count_allocate,
        )

        def count_sample(args, kwargs, success):
            counters["network.epr.samples"] += 1
            counters["network.epr.successes"] += bool(success)

        self._span_method(
            EPRModel, "sample_round", "network.epr.sample", after=count_sample
        )
        self._span_method(
            CloudTopology, "path_success_probability", "network.path_prob"
        )
        self._span_method(FrontLayer, "requests", "sim.front_layer.requests")
        self._span_method(RemoteDAG, "__init__", "scheduling.remote_dag")
        self._span_global(cluster_sim, "local_execution_time", "sim.local_time")
        self._span_global(executor, "local_execution_time", "sim.local_time")
        self._span_method(NetworkExecutor, "execute", "sim.executor.execute")
        for method in ("place", "start", "complete", "drop", "preempt"):
            self._span_method(Controller, method, "cloud.controller")
        for method in _TELEMETRY_HOOKS:
            self._span_method(Telemetry, method, "multitenant.telemetry")

        def count_record(args, kwargs, record):
            counters["trace.records"] += 1

        self._span_method(
            TraceCursor, "__next__", "multitenant.trace.read", after=count_record
        )
        self._patch(
            TraceReader, "__iter__", self._traced_iter(vars(TraceReader)["__iter__"])
        )

        def count_snapshot(args, kwargs, size):
            counters["checkpoint.snapshots"] += 1
            counters["checkpoint.bytes"] += size

        self._span_global(
            cluster_sim, "write_snapshot", "multitenant.checkpoint.write",
            after=count_snapshot,
        )

    def _traced_iter(self, iter_fn: Callable) -> Callable:
        """``__iter__`` returning a generator whose every step is a span."""
        counters = self.counters

        def step(iterator):
            return next(iterator)

        traced_step = self._wrap("multitenant.trace.read", step)

        def traced_iter(reader) -> Iterator:
            iterator = iter_fn(reader)
            while True:
                try:
                    record = traced_step(iterator)
                except StopIteration:
                    return
                counters["trace.records"] += 1
                yield record

        return traced_iter

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the raw spans (one row per span) as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        outer = name >= 0
        base = np.where(outer, name, -1 - name)
        count = len(SPAN_NAMES)
        return {
            span: {
                "calls": int(calls),
                "s": float(total),
                "self_s": float(own),
            }
            for span, calls, total, own in zip(
                SPAN_NAMES,
                np.bincount(base, minlength=count),
                np.bincount(base[outer], weights=duration[outer], minlength=count),
                np.bincount(base, weights=self_time, minlength=count),
            )
        }

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        top = parent < 0
        return float(np.sum(end[top] - start[top]))
