#!/usr/bin/env python3
"""Reachability sweep: the ``src/repro`` functions no entry point enters.

Runs each command with a generated ``sitecustomize.py`` first on
``PYTHONPATH``.  In every Python process that inherits that environment,
the file installs a ``sys.settrace``/``threading.settrace`` hook that adds
each code object entered to a set, and at exit writes the ones defined
under ``src/`` to one file per process.  The script then walks the AST of
every module under ``src/repro``, lists each function whose code object no
process entered, with its line count, and prints a summary line: functions
entered, functions never entered and the source lines of the never-entered
ones (nested functions counted once, inside their outer function).

Without ``--cmd``, the commands are the CI entry points other than the
tier-1 tests: the 10 examples with CI's arguments and the offline report
of the exported event stream, detlint, ``bench_report.py --bench 4/5/8/9``,
``kill_resume_smoke.py``, the four perfbench workloads untraced
(``--seconds 3``) and traced, and ``benchmarks/`` with
``--benchmark-disable`` (pytest-benchmark times nothing then).  The one
timing test ``test_enabled_hook_overhead_is_bounded`` is deselected: the
trace hook slows it past its bound.  Outputs go to a temporary directory,
never into the tree.  On a 2-vCPU VM the default sweep takes about 13 min.

A process that ends through ``os._exit`` or a signal writes nothing, and a
child started with its own ``PYTHONPATH`` is not traced (the SIGKILLed child
of ``kill_resume_smoke.py``; its resume runs in a traced process).  So the
list is an upper bound on what the entry points never reach.

Not a CI step.  Usage, from the repository root::

    python3 scripts/reachability.py                       # the CI entry points
    python3 scripts/reachability.py --cmd "python3 examples/quickstart.py"
    python3 scripts/reachability.py --root ../other-checkout --out unreached.txt
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_out = os.environ.get("REACHABILITY_OUT")
_src = os.environ.get("REACHABILITY_SRC")
if _out and _src:
    _entered = set()
    _add = _entered.add

    def _hook(frame, event, arg):
        _add(frame.f_code)

    def _write():
        sys.settrace(None)
        lines = sorted(
            "%s\\t%d" % (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in list(_entered)
            if code.co_filename.startswith(_src)
        )
        name = "%d-%d.txt" % (os.getpid(), id(_entered))
        with open(os.path.join(_out, name), "w") as handle:
            handle.write("\\n".join(lines))

    atexit.register(_write)
    sys.settrace(_hook)
    threading.settrace(_hook)
'''

EXAMPLES = [
    ["examples/quickstart.py"],
    ["examples/single_circuit_placement.py"],
    ["examples/network_scheduling_comparison.py"],
    ["examples/custom_cloud_and_circuit.py"],
    ["examples/incoming_jobs.py", "4", "0.002"],
    ["examples/multi_tenant_cloud.py", "qugan", "2"],
    ["examples/stream_admission.py", "40"],
    ["examples/stream_preemption.py", "2", "--export", "{tmp}/events.jsonl"],
    ["examples/replay_trace.py", "40"],
    ["examples/stream_chaos.py", "2"],
]
WORKLOADS = ["anchor-burst", "epr-contention", "cluster-trace", "paper-fig22"]


def default_commands() -> List[List[str]]:
    """The CI entry points other than the tier-1 tests, as argv lists."""
    python = sys.executable
    commands = [[python, *example] for example in EXAMPLES]
    commands.append([
        python, "scripts/bench_report.py", "--events", "{tmp}/events.jsonl",
        "--out", "{tmp}/EVENTS_REPORT.json",
    ])
    commands.append([
        python, "scripts/detlint.py", "src/repro", "--format", "json",
        "--out", "{tmp}/DETLINT.json",
    ])
    for bench in (4, 5, 8, 9):
        commands.append([
            python, "scripts/bench_report.py", "--bench", str(bench),
            "--out", f"{{tmp}}/BENCH_{bench}.json",
        ])
    commands.append([python, "scripts/kill_resume_smoke.py"])
    for workload in WORKLOADS:
        commands.append([
            python, "perfbench/run.py", "--workload", workload,
            "--seconds", "3", "--trace", "0",
        ])
        commands.append([
            python, "perfbench/run.py", "--workload", workload, "--trace", "1",
        ])
    commands.append([
        python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable", "benchmarks",
        "--deselect",
        "benchmarks/test_stream_preemption.py::test_enabled_hook_overhead_is_bounded",
    ])
    return commands


def run_traced(
    root: Path, commands: Iterable[List[str]], work: Path
) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run ``commands`` traced; the entered ``(file, first line)`` pairs."""
    hook_dir = work / "hook"
    out_dir = work / "entered"
    hook_dir.mkdir()
    out_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(hook_dir), str(src), env.get("PYTHONPATH", ""))
        if part
    )
    env["REACHABILITY_OUT"] = str(out_dir)
    env["REACHABILITY_SRC"] = str(src.resolve())
    failures = []
    for command in commands:
        argv = [arg.replace("{tmp}", str(work)) for arg in command]
        started = time.monotonic()
        done = subprocess.run(
            argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        elapsed = time.monotonic() - started
        status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
        print(f"[{elapsed:7.1f} s] {status}: {shlex.join(argv)}", file=sys.stderr)
        if done.returncode != 0:
            failures.append(shlex.join(argv))
            sys.stderr.write(done.stderr[-2000:])
    entered: Set[Tuple[str, int]] = set()
    for path in out_dir.iterdir():
        for line in path.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            entered.add((filename, int(lineno)))
    return entered, failures


def functions(src: Path) -> List[Tuple[str, int, int, str]]:
    """Every function under ``src``: ``(file, first line, last line, name)``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = []
    for path in sorted(src.rglob("*.py")):
        filename = os.path.realpath(path)
        tree = ast.parse(path.read_text(), filename=filename)
        # Qualified name of the innermost class or function around a node.
        scopes: Dict[ast.AST, str] = {}
        for node in ast.walk(tree):
            prefix = scopes.get(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes[child] = f"{prefix}.{child.name}" if prefix else child.name
                elif prefix:
                    scopes[child] = prefix
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append((filename, first, node.end_lineno, scopes[node]))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=ROOT,
        help="checkout to sweep (default: this script's)",
    )
    parser.add_argument(
        "--cmd", action="append", default=None,
        help="command to run from the root, split like a shell line "
        "(repeatable; default: the CI entry points)",
    )
    parser.add_argument("--out", type=Path, default=None, help="write the list here too")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    commands = (
        [shlex.split(command) for command in args.cmd]
        if args.cmd
        else default_commands()
    )
    with tempfile.TemporaryDirectory(prefix="reachability-") as work:
        entered, failures = run_traced(root, commands, Path(work))
    src = root / "src" / "repro"
    every = functions(src)
    unreached = [f for f in every if (f[0], f[1]) not in entered]
    # Lines of nested never-entered functions are counted once.
    lines: Set[Tuple[str, int]] = set()
    report = []
    for filename, first, last, name in unreached:
        lines.update((filename, line) for line in range(first, last + 1))
        relative = os.path.relpath(filename, root)
        report.append(f"{relative}:{first}\t{name}\t{last - first + 1}")
    summary = (
        f"{len(every) - len(unreached)} of {len(every)} functions entered; "
        f"{len(unreached)} never entered ({len(lines)} lines)"
    )
    text = "\n".join(report + [summary]) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text)
    if failures:
        print(f"{len(failures)} command(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
