#!/usr/bin/env python3
"""Reach audit: list every ``src/`` function that no program leg calls.

Each leg drives the program the way an operator does:

- ``repro run`` of every golden plan;
- ``repro report --scale tiny``;
- every CLI subcommand: ``list``; ``run`` of a plan file, of ``q2 --scale
  tiny``, at ``--jobs 2`` and with ``--csv-dir``; ``run --cache-dir`` then
  ``--resume``; ``cache stats`` (also ``--json``), ``verify`` and ``prune``;
- ``repro serve`` (a ``ServeServer`` in this process, with its metrics
  endpoint and snapshot writer) driven by ``python -m repro.serve.client``
  and scraped by ``repro metrics``, then ``repro replay`` of its log;
- ``repro worker`` serving a ``repro run smoke --jobs 1 --executor`` from a
  second thread, scraped by ``repro metrics``.

The daemons run in the main thread, as under the CLI, and are drained by
sending this process SIGTERM once their clients are done.  All legs run in
two fresh interpreters: one with the C cascade kernel loaded, one with
``cascade_kernel.load`` patched to return ``None``.  ``sys.setprofile`` and
``threading.setprofile`` record every Python call keyed on its code
object's ``(co_filename, co_firstlineno, co_name)``, so daemon and pool
threads count; work done in pool worker processes is not seen (every leg
but ``--jobs 2`` runs serially).

The report lists each ``def`` in ``src/`` that neither pass called, with its
line count (decorators included), then the totals.  A function nested in an
unreached one is folded into it.  Reached-only-by-tests is the point: a name
listed here is called by no program path, so it is either a check, a
fallback or an error path that a leg did not trigger, or a deletion
candidate.

Run from the repository root (80–115 s on two cores)::

    python benchmarks/reach_audit.py

It is a development tool, not a test: it exits 0 whatever it lists, and
non-zero only when a leg fails.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Key = Tuple[str, int, str]


def src_functions() -> Dict[Key, Tuple[int, Key]]:
    """Every ``def`` under ``src/``: key -> (line count, enclosing def's key)."""
    found: Dict[Key, Tuple[int, Key]] = {}

    def visit(node: ast.AST, path: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (path, first, child.name)
                found[key] = (child.end_lineno - first + 1, parent)
                visit(child, path, key)
            else:
                visit(child, path, parent)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), None)
    return found


# ---------------------------------------------------------------------------
# the legs (run in a child interpreter)
# ---------------------------------------------------------------------------


def _cli(argv: List[str]) -> str:
    """Run one ``repro`` command in process; return its stdout, fail on status."""
    import contextlib
    import io

    from repro.cli import main

    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {status}")
    return output.getvalue()


def _with_daemon(argv: List[str], banner: str, client) -> str:
    """Run a daemon subcommand in this thread while ``client`` drives it.

    ``client(address, metrics_url)`` runs in a second thread once the daemon
    prints ``<banner> listening on ADDRESS``; this process then sends itself
    SIGTERM, which the daemon answers by draining and returning.
    """
    import contextlib
    import io
    import signal
    import threading

    from repro.cli import main

    output = io.StringIO()
    failures: List[BaseException] = []

    def drive() -> None:
        try:
            deadline = time.monotonic() + 60
            while True:
                text = output.getvalue()
                address = re.search(rf"{banner} listening on (\S+)", text)
                metrics = re.search(r"metrics listening on (\S+)", text)
                if address and metrics:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"repro {argv[0]} printed no banner")
                time.sleep(0.05)
            client(address.group(1), metrics.group(1))
        except BaseException as error:  # noqa: BLE001 - re-raised below
            failures.append(error)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=drive)
    with contextlib.redirect_stdout(output):
        thread.start()
        status = main(argv)
    thread.join()
    if failures:
        raise failures[0]
    if status != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {status}")
    return output.getvalue()


def legs(work: Path) -> Iterator[str]:
    """Run every leg in turn, yielding each one's name when it has run."""
    from repro.plans.io import dumps, golden_plan_names, load_golden_plan

    for name in golden_plan_names():
        _cli(["run", name])
    yield "golden plans"

    _cli(["report", "--scale", "tiny", "--output", str(work / "EXPERIMENTS.md")])
    yield "report --scale tiny"

    plan_file = work / "smoke.json"
    plan_file.write_text(dumps(load_golden_plan("smoke")))
    cache = str(work / "cache")
    _cli(["list"])
    _cli(["run", str(plan_file), "--csv-dir", str(work)])
    _cli(["run", "q2", "--scale", "tiny"])
    _cli(["run", "smoke", "--jobs", "2"])
    _cli(["run", "smoke", "--cache-dir", cache])
    _cli(["run", "smoke", "--cache-dir", cache, "--resume"])
    for action in (["stats"], ["stats", "--json"], ["verify"], ["prune"]):
        _cli(["cache", *action, "--cache-dir", cache])
    yield "list, run, cache"

    log = str(work / "ingest")

    def serve_client(address: str, metrics: str) -> None:
        import contextlib
        import io

        from repro.serve import client

        with contextlib.redirect_stdout(io.StringIO()):
            client.main(["--address", address, "--requests", "150", "--batch", "5",
                         "--print-table"])
        _cli(["metrics", metrics])
        _cli(["metrics", address, "--json", "--trace"])

    _with_daemon(
        ["serve", "--listen", "tcp://127.0.0.1:0", "--metrics", "tcp://127.0.0.1:0",
         "--metrics-snapshot-interval", "0.1", "--nodes", "63", "--log-dir", log],
        "serve",
        serve_client,
    )
    _cli(["replay", log])
    yield "serve, replay"

    def fleet_client(address: str, metrics: str) -> None:
        _cli(["run", "smoke", "--jobs", "1", "--executor", address])
        _cli(["metrics", metrics])

    _with_daemon(
        ["worker", "--listen", "tcp://127.0.0.1:0", "--metrics", "tcp://127.0.0.1:0"],
        "worker",
        fleet_client,
    )
    yield "worker, run --executor"


def child(kernel: str, out_path: str) -> None:
    """Run every leg under the profiler; write the reached keys as JSON."""
    import threading

    reached: Set[Tuple[str, int, str]] = set()
    add = reached.add

    def profile(frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.path.insert(0, str(SRC))
    threading.setprofile(profile)
    sys.setprofile(profile)
    if kernel == "hidden":
        from repro.algorithms import cascade_kernel

        cascade_kernel.load = lambda: None
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as work:
        for name in legs(Path(work)):
            print(f"  [{kernel}] {name}: {time.perf_counter() - start:.1f} s",
                  file=sys.stderr, flush=True)
    sys.setprofile(None)
    threading.setprofile(None)
    src = str(SRC) + os.sep
    keys = sorted(
        [os.path.realpath(path), line, name]
        for path, line, name in reached
        if os.path.realpath(path).startswith(src)
    )
    Path(out_path).write_text(json.dumps(keys))


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


def run_pass(kernel: str, out_path: str) -> "subprocess.Popen[bytes]":
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'benchmarks')!r}); "
        f"import reach_audit; reach_audit.child({kernel!r}, {out_path!r})"
    )
    return subprocess.Popen([sys.executable, "-c", code], cwd=str(ROOT))


def main() -> int:
    functions = src_functions()
    reached: Dict[str, Set[Key]] = {}
    with tempfile.TemporaryDirectory(prefix="reach-audit-out-") as out:
        passes = {
            kernel: (run_pass(kernel, f"{out}/{kernel}.json"), f"{out}/{kernel}.json")
            for kernel in ("loaded", "hidden")
        }
        failed = False
        for kernel, (process, path) in passes.items():
            if process.wait() != 0:
                print(f"reach audit: the kernel-{kernel} pass failed", file=sys.stderr)
                failed = True
                continue
            reached[kernel] = {tuple(key) for key in json.loads(Path(path).read_text())}
        if failed:
            return 1
    union = reached["loaded"] | reached["hidden"]
    unreached = [key for key in functions if key not in union]
    unreached_set = set(unreached)
    # a def nested in an unreached def is counted with it
    shown = [key for key in unreached if functions[key][1] not in unreached_set]
    total_lines = sum(functions[key][0] for key in shown)

    print(f"Unreached src/ functions (neither pass called them), {len(shown)} "
          f"outermost, {total_lines} lines:")
    current = None
    for path, line, name in sorted(shown):
        if path != current:
            current = path
            print(f"\n{os.path.relpath(path, ROOT)}")
        print(f"  {line:5d}  {name}  ({functions[(path, line, name)][0]} lines)")
    print()
    for kernel in ("loaded", "hidden"):
        hit = sum(1 for key in functions if key in reached[kernel])
        print(f"kernel {kernel}: {hit} of {len(functions)} functions reached")
    hit = len(functions) - len(unreached)
    print(f"either pass: {hit} of {len(functions)} reached; "
          f"{len(shown)} outermost unreached, {total_lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
