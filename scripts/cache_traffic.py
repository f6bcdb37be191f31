#!/usr/bin/env python3
"""Cache traffic: hits and misses of every simulator cache, per workload.

Runs one replay of each perfbench workload (trace seed as ``perfbench/run.py``
picks it, simulation seed 1), plus two paper paths, each in its own process.
Before the workload is built, that process wraps the lookup of every cache
below with a counter; nothing else is patched, and no other process sees
the wrappers.  Each perfbench replay's digest is checked against
``tests/golden/perfbench_digests.jsonl``, which shows the counters changed
no result.  The script then prints one row per cache and one
``hits/misses`` column per leg; ``-`` means the cache was never looked up.

Caches counted (a cache a checkout lacks is simply never looked up):

* ``PlacementContext`` memos, one lookup per call as the context's own
  ``hits``/``misses`` count it (a nested memo call counts for itself only);
* ``CloudTopology``: the path, path-link and distance tables;
* ``EPRModel``: the pair-probability table ``sample_round`` reads (one
  lookup per sample with a positive number of attempts);
* ``CSRGraph``: the spread-seed and BFS-hop memos;
* ``QuantumCloud``: the version-keyed resource graph and availability map;
* ``QuantumCircuit.memo``, per key kind, and the circuit-library
  ``cached_circuit``;
* ``FrontLayer``'s per-job request table;
* the snapshot-capture memos of the cluster simulator (completed jobs and
  retained results), listed as ``0/0`` when a snapshot found nothing to
  capture.

The paper legs are ``fig14-17`` (``multitenant_jct_distribution("qugan",
num_batches=1, batch_size=6)``) and ``single`` (CloudQC and CloudQC-BFS
placing five circuits on ``default_cloud(seed=7)``); no digest is recorded
for them.

Stdlib only in this process; each leg imports the simulator from the
checkout's ``src/``.  Exit status 1 when a leg fails or a perfbench digest
differs from the golden file.  Usage, from the repository root::

    python3 scripts/cache_traffic.py
    python3 scripts/cache_traffic.py --root ../other-checkout
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH_LEGS = ("anchor-burst", "epr-contention", "cluster-trace", "paper-fig22")
PAPER_LEGS = ("fig14-17", "single")
SIM_SEED = 1
#: ``perfbench/run.py``'s trace seeds where they differ from the sim seed.
TRACE_SEEDS = {"paper-fig22": 7}
SINGLE_CIRCUITS = ("knn_n67", "qft_n29", "adder_n64", "multiplier_n45", "qugan_n71")

#: ``PlacementContext`` memo method -> the cache it looks up.
CONTEXT_MEMOS = {
    "interaction": "_interactions",
    "_interaction_forms": "_interaction_nx",
    "interaction_csr": "_csr",
    "partition": "_partitions",
    "quotient": "_quotients",
    "communities": "_communities",
    "community_qpu_set": "_qpu_sets",
    "bfs_qpu_set": "_qpu_sets",
    "topology_center": "_topology_centers",
}


# ----------------------------------------------------------------------
# Inside a leg process
# ----------------------------------------------------------------------
class _Counts:
    def __init__(self) -> None:
        self.table: Dict[str, List[int]] = {}

    def add(self, cache: str, hits: int, misses: int, called: bool = False) -> None:
        """Count lookups; ``called`` lists the cache even with none (0/0)."""
        if hits or misses or called:
            entry = self.table.setdefault(cache, [0, 0])
            entry[0] += hits
            entry[1] += misses

    def lookup(self, cache: str, hit: bool) -> None:
        self.add(cache, int(hit), int(not hit))


def _wrap(owner, name: str, before) -> None:
    """Call ``before(*args, **kwargs)`` ahead of every ``owner.name`` call."""
    original = owner.__dict__.get(name)
    if original is None:
        return

    def counted(*args, **kwargs):
        before(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(owner, name, counted)


def _install(counts: _Counts) -> None:
    from repro.circuits import QuantumCircuit
    from repro.cloud import CloudTopology, QuantumCloud
    from repro.multitenant import cluster_sim
    from repro.network import EPRModel
    from repro.partition import CSRGraph, kway
    from repro.placement import PlacementContext
    from repro.sim.front_layer import FrontLayer

    # Context memos: the context counts one hit or miss per lookup, so a
    # call's own lookups are its counter deltas minus those of the memo
    # calls it makes itself.
    nested: List[List[int]] = []

    def context_memo(name: str, cache: str) -> None:
        original = PlacementContext.__dict__.get(name)
        if original is None:
            return

        def counted(self, *args, **kwargs):
            hits, misses = self.hits, self.misses
            nested.append([0, 0])
            try:
                return original(self, *args, **kwargs)
            finally:
                inner_hits, inner_misses = nested.pop()
                hits, misses = self.hits - hits, self.misses - misses
                counts.add(
                    f"PlacementContext.{cache}",
                    hits - inner_hits,
                    misses - inner_misses,
                )
                if nested:
                    nested[-1][0] += hits
                    nested[-1][1] += misses

        setattr(PlacementContext, name, counted)

    for name, cache in CONTEXT_MEMOS.items():
        context_memo(name, cache)

    _wrap(CloudTopology, "_path", lambda self, a, b: counts.lookup(
        "CloudTopology._paths", (a, b) in self._paths))

    def path_links(self, a, b, *args, **kwargs):
        if a != b:
            counts.lookup("CloudTopology._path_links", (a, b) in self._path_links)

    _wrap(CloudTopology, "path_success_probability", path_links)
    _wrap(CloudTopology, "distance_table", lambda self: counts.lookup(
        "CloudTopology._distances", self._distances is not None))

    def pair_table(self, qpu_a, qpu_b, parallel_attempts, rng):
        if parallel_attempts > 0 and hasattr(self, "_pair_table"):
            counts.lookup("EPRModel._pair_table", (qpu_a, qpu_b) in self._pair_table)

    _wrap(EPRModel, "sample_round", pair_table)

    def hops(self, source):
        if hasattr(self, "_hops"):
            counts.lookup("CSRGraph._hops", source in self._hops)

    _wrap(CSRGraph, "hops", hops)

    def spread_seeds(graph, num_parts):
        if hasattr(graph, "seeds"):
            counts.lookup("CSRGraph.seeds", num_parts in graph.seeds)

    _wrap(kway, "_spread_seeds", spread_seeds)

    def version_cache(attribute: str):
        def before(self):
            cached = getattr(self, attribute)
            counts.lookup(
                f"QuantumCloud.{attribute}",
                cached is not None and cached[0] == self.resource_version,
            )
        return before

    _wrap(QuantumCloud, "available_computing", version_cache("_available_cache"))
    _wrap(QuantumCloud, "resource_graph", version_cache("_resource_graph_cache"))

    def memo(self, key, build):
        kind = key[0] if isinstance(key, tuple) else key
        counts.lookup(f"QuantumCircuit._memo[{kind}]", key in self._memo)

    _wrap(QuantumCircuit, "memo", memo)
    _wrap(FrontLayer, "requests", lambda self, job_id: counts.lookup(
        "FrontLayer._table", self._table_job == job_id))

    batch = cluster_sim._EventDrivenBatch

    def capture_jobs(self):
        jobs = self.controller.jobs
        hits = sum(1 for job_id in jobs if job_id in self._job_capture_cache)
        counts.add(
            "_EventDrivenBatch._job_capture_cache", hits, len(jobs) - hits, True
        )

    def capture_results(self):
        hits = min(len(self._captured_results), len(self.results))
        counts.add(
            "_EventDrivenBatch._captured_results",
            hits,
            len(self.results) - hits,
            True,
        )

    _wrap(batch, "_capture_jobs", capture_jobs)
    _wrap(batch, "_capture_results", capture_results)


def _run_perfbench(root: Path, leg: str) -> str:
    sys.path.insert(0, str(root / "perfbench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=f"cache-traffic-{leg}-") as work_dir:
        workload = WORKLOADS[leg](TRACE_SEEDS.get(leg, SIM_SEED), SIM_SEED, work_dir)
        workload.setup()
        workload.prepare()
        summary = workload.summarize(workload.replay())
    if summary["problems"]:
        raise RuntimeError(f"{leg}: {summary['problems']}")
    return summary["digest"]


def _run_paper(leg: str) -> None:
    from repro.analysis import default_cloud
    from repro.analysis.experiments import (
        multitenant_jct_distribution,
        single_circuit_placement,
    )
    from repro.placement import CloudQCBFSPlacement, CloudQCPlacement

    if leg == "fig14-17":
        multitenant_jct_distribution("qugan", num_batches=1, batch_size=6)
    else:
        single_circuit_placement(
            SINGLE_CIRCUITS,
            {"CloudQC": CloudQCPlacement(), "CloudQC-BFS": CloudQCBFSPlacement()},
            cloud=default_cloud(seed=7),
        )


def run_leg(root: Path, leg: str) -> dict:
    sys.path.insert(0, str(root / "src"))
    counts = _Counts()
    _install(counts)
    from repro.multitenant import trace

    library_before = trace.cached_circuit.cache_info()
    digest = None
    if leg in PERFBENCH_LEGS:
        digest = _run_perfbench(root, leg)
    else:
        _run_paper(leg)
    library = trace.cached_circuit.cache_info()
    counts.add(
        "trace.cached_circuit",
        library.hits - library_before.hits,
        library.misses - library_before.misses,
    )
    return {"leg": leg, "digest": digest, "caches": counts.table}


# ----------------------------------------------------------------------
# Parent process: run the legs, print the table
# ----------------------------------------------------------------------
def _golden(root: Path) -> Dict[str, str]:
    lines = (root / "tests" / "golden" / "perfbench_digests.jsonl").read_text()
    return {
        leg["workload"]: leg["digest"]
        for leg in map(json.loads, lines.splitlines()[1:])
        if leg["sim_seed"] == SIM_SEED
    }


def format_table(legs: List[dict]) -> str:
    caches = sorted({cache for leg in legs for cache in leg["caches"]})
    header = ["cache"] + [leg["leg"] for leg in legs]
    rows = [header]
    for cache in caches:
        row = [cache]
        for leg in legs:
            entry = leg["caches"].get(cache)
            row.append("-" if entry is None else f"{entry[0]}/{entry[1]}")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        )
        for row in rows
    )


def never_hit(legs: List[dict]) -> List[str]:
    """Caches looked up on some leg that no leg ever served a hit from."""
    caches = sorted({cache for leg in legs for cache in leg["caches"]})
    return [
        cache for cache in caches
        if all(leg["caches"].get(cache, [0, 0])[0] == 0 for leg in legs)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT),
                        help="checkout to count (default: this one)")
    parser.add_argument("--leg", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if args.leg:
        print(json.dumps(run_leg(root, args.leg)))
        return 0

    golden = _golden(root)
    legs: List[dict] = []
    failed: List[Tuple[str, str]] = []
    for leg in PERFBENCH_LEGS + PAPER_LEGS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--root", str(root), "--leg", leg],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            failed.append((leg, (done.stderr.strip().splitlines() or ["?"])[-1]))
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["digest"] is not None and result["digest"] != golden.get(leg):
            failed.append((leg, "digest differs from the golden file"))
        legs.append(result)
        print(f"{leg}: done", file=sys.stderr, flush=True)
    print(format_table(legs))
    idle = never_hit(legs)
    print(f"\nno hit on any leg: {', '.join(idle) if idle else 'none'}")
    checked = [leg for leg in legs if leg["digest"] is not None]
    for leg, reason in failed:
        print(f"{leg}: {reason}", file=sys.stderr)
    if failed:
        return 1
    print(f"all {len(checked)} perfbench digests match the golden file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
