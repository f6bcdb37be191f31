"""One leg of a benchmark run: set up one workload, replay it, check it.

``run.py`` starts leg processes one at a time, so a leg's peak RSS belongs
to that workload alone and its set-up time is cold.  Every replay is
bracketed by two timings of a fixed reference loop.  An untraced leg
replays the workload until the wall-clock time ``--until`` (at least once).
A traced leg replays it four times: a warm-up, untraced, traced, untraced,
and writes the traced replay's spans to ``.perfbench/``.  The leg prints
one JSON object on its last stdout line.  Run it directly only to debug a
leg::

    python3 perfbench/worker.py --workload anchor-burst --trace-seed 1 \
        --sim-seed 1
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch files (traces, event streams, snapshots, spans) live here.
OUT_DIR = ROOT / ".perfbench"


def reference_work(steps: int = 150_000) -> float:
    """Fixed pure-Python work (~0.3 s) that touches no simulator code.

    The host's speed drifts by up to a fifth over minutes; timing this
    loop next to every replay lets ``run.py`` divide the drift out.
    """
    rng = random.Random(12345)
    heap, table, total = [], {}, 0.0
    for step in range(steps):
        key = rng.randrange(4096)
        table[key] = table.get(key, 0.0) + math.sqrt(step)
        heapq.heappush(heap, (rng.random(), step))
        if len(heap) > 512:
            total += heapq.heappop(heap)[0]
        if step % 4096 == 0:
            total += sorted(table.items())[0][1]
    return total


def _reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _replay(workload, reference_before: float, tracer=None) -> dict:
    """One replay, then one timing of the reference work.

    ``reference_s`` is the mean of the reference timings on either side of
    the replay, so ``replay_s / reference_s`` divides out the host's speed.
    """
    workload.prepare()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        raw = workload.replay()
        replay_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = workload.summarize(raw)
    summary["replay_s"] = replay_s
    summary["reference_after_s"] = _reference_s()
    summary["reference_s"] = (reference_before + summary["reference_after_s"]) / 2
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--until", type=float, default=0.0,
                        help="start no untraced replay that would end later "
                             "than this time.time() value")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    # The simulator is imported from this checkout's src/, never from an
    # installed copy; set-up time includes the import.
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"imported repro from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](
            args.trace_seed, args.sim_seed, work_dir
        )
        workload.setup()
        setup_s = time.perf_counter() - SETUP_START
        tracer = None
        replays = []
        reference = _reference_s()
        if args.traced:
            from tracer import Tracer

            tracer = Tracer()
            for replay_tracer in (None, None, tracer, None):
                replays.append(_replay(workload, reference, replay_tracer))
                reference = replays[-1]["reference_after_s"]
        else:
            start = time.time()
            while True:
                replays.append(_replay(workload, reference))
                reference = replays[-1]["reference_after_s"]
                now = time.time()
                if now + (now - start) / len(replays) > args.until:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    leg = {
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "replays": replays,
    }
    if tracer is not None:
        stats = [context.stats() for context in tracer.contexts.values()]
        leg["trace"] = {
            "layers": tracer.layer_table(),
            "counters": dict(tracer.counters),
            "top_level_s": tracer.top_level_seconds(),
            "context_hits": sum(s["hits"] for s in stats),
            "context_misses": sum(s["misses"] for s in stats),
            "spans": len(tracer.span_start),
        }
        tracer.write(
            OUT_DIR / f"spans-{args.workload}-{args.trace_seed}-{args.sim_seed}.npz"
        )
    print(json.dumps(leg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
