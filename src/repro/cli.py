"""Command-line interface for the repro library.

Installed as the ``repro`` console script (also runnable via
``python -m repro``).  Subcommands:

``list``
    List the registered algorithms, workload kinds, adversary kinds,
    experiment scales and golden plans.
``demo``
    Run a small comparison of all algorithms on a combined-locality workload
    and print the cost table (internally: a :class:`repro.plans.TrialPlan`).
``run``
    Execute a declarative experiment plan — a JSON file or a shipped golden
    plan name (``q1`` … ``q5``, ``table1``, ``smoke``, ...).  ``--scale S``
    runs a paper experiment (``q1`` … ``q5``) at another scale: ``repro run
    q2 --scale small`` is ``repro.run(build_q2_plan("small"))``.  The
    ``--jobs`` flag overrides the plan's run shape (CLI wins);
    ``--cache-dir``/``--resume``/``--max-retries`` attach the resilience
    layer (checkpointed, resumable, fault-isolated execution);
    ``--executor tcp://host:port[,host:port...]`` dispatches the trials to a
    remote worker fleet (see ``repro worker``) with byte-identical results.
``worker``
    Start a long-lived trial worker daemon serving a coordinator over TCP
    (``repro worker --listen tcp://0.0.0.0:7777``).
``serve``
    Start the live traffic endpoint (``repro serve --listen
    tcp://0.0.0.0:7000 --nodes 63 --algorithm rotor-push --log-dir LOG``):
    concurrent client sessions, bounded queues with explicit backpressure,
    live stats, and a crash-safe replayable ingest log.  SIGTERM/SIGINT
    drain before exit.
``replay``
    Rerun a recorded ingest log bit-identically through ``repro.run``
    (``repro replay LOG``): prints the same per-source cost table the live
    engine accumulated.
``cache``
    Inspect or maintain a checkpoint store: ``stats`` (entry count, bytes,
    orphans: torn records and old-layout files), ``verify`` (re-check every
    entry's checksum) and ``prune`` (drop corrupt and torn records and
    old-layout files, skipping segments a live run holds).
``report``
    Run every experiment (q1–q5 and Table 1) and write the Markdown report
    (EXPERIMENTS.md).

Each subcommand imports its modules when it runs, so a daemon or a scrape
does not load the plan layer and a plan run does not load the daemons.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.constants import DEFAULT_CACHE_DIR
from repro.exceptions import PlanError, ReproError
from repro.experiments.config import SCALES

if TYPE_CHECKING:
    from repro.sim.results import ResultTable

__all__ = ["main", "build_parser", "resolve_run_plan"]

#: Golden plans ``repro run --scale`` rebuilds at another scale with
#: ``repro.experiments.build_<name>_plan``; the shipped documents are these
#: builders' ``tiny`` output.
SCALED_PLANS = ("q1", "q2", "q3", "q4", "q5")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-adjusting tree networks with rotor walks - reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def jobs_type(value: str) -> int:
        jobs = int(value)
        if jobs == 0:
            raise argparse.ArgumentTypeError(
                "must be positive (worker count) or negative (all CPUs), not 0"
            )
        return jobs

    jobs_help = (
        "worker processes for trial execution (1 = serial, negative = all CPUs); "
        "results are bit-identical for every value"
    )

    subparsers.add_parser("list", help="list algorithms, scales and golden plans")

    demo = subparsers.add_parser("demo", help="run a quick algorithm comparison")
    demo.add_argument("--nodes", type=int, default=255, help="tree size (2**k - 1)")
    demo.add_argument("--requests", type=int, default=5_000, help="requests per trial")
    demo.add_argument("--trials", type=int, default=2, help="number of trials")
    demo.add_argument("--zipf", type=float, default=1.6, help="Zipf exponent")
    demo.add_argument("--repeat", type=float, default=0.5, help="repeat probability")
    demo.add_argument("--jobs", type=jobs_type, default=1, help=jobs_help)

    run = subparsers.add_parser(
        "run",
        help="execute a declarative experiment plan (JSON file or golden name)",
    )
    run.add_argument(
        "plan",
        help=(
            "path to a plan JSON file, or the name of a shipped golden plan "
            "(see 'repro list')"
        ),
    )
    run.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALES),
        help=(
            "rebuild a paper experiment (q1-q5) at this scale instead of "
            "loading its shipped tiny-scale document"
        ),
    )
    run.add_argument("--csv-dir", default=None, help="directory for CSV exports")
    run.add_argument("--jobs", type=jobs_type, default=None, help=jobs_help)

    def trials_type(value: str) -> int:
        trials = int(value)
        if trials <= 0:
            raise argparse.ArgumentTypeError("must be a positive trial count")
        return trials

    def requests_type(value: str) -> int:
        requests = int(value)
        if requests < 0:
            raise argparse.ArgumentTypeError("must be a non-negative request count")
        return requests

    run.add_argument(
        "--trials",
        type=trials_type,
        default=None,
        help=(
            "override the trial count of every stage in the plan document "
            "(CLI wins, recursively) — e.g. to smoke-test a big plan"
        ),
    )
    run.add_argument(
        "--requests",
        type=requests_type,
        default=None,
        help=(
            "override the per-trial request count of every stage in the plan "
            "document (CLI wins, recursively); for network plans this counts "
            "requests per source"
        ),
    )

    def retries_type(value: str) -> int:
        retries = int(value)
        if retries < 0:
            raise argparse.ArgumentTypeError("must be a non-negative retry count")
        return retries

    run.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "checkpoint store directory: every completed trial is persisted "
            "there as it finishes (overrides the plan document's cache_dir, "
            "recursively); results are bit-identical with or without a cache"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip trials whose checkpoint entry already exists in the cache "
            "(needs --cache-dir or a cache_dir in the plan document); "
            "corrupted entries are detected and re-run"
        ),
    )
    run.add_argument(
        "--max-retries",
        type=retries_type,
        default=None,
        help=(
            "per-trial retry budget for transient worker failures, and the "
            "pool-rebuild budget before degrading to serial execution "
            "(overrides the plan document, recursively; robustness knob "
            "only, never changes results)"
        ),
    )
    run.add_argument(
        "--executor",
        default=None,
        help=(
            "dispatch trials to a remote worker fleet instead of the local "
            "pool: tcp://HOST:PORT[,HOST:PORT...][?lease=SECONDS&heartbeat="
            "SECONDS] (workers started with 'repro worker'); a lease not "
            "heartbeated for ?lease= seconds is requeued, ?heartbeat= is the "
            "cadence workers are asked to keep; lost workers are requeued "
            "and the run degrades to local execution if the whole fleet is "
            "lost — results are byte-identical either way"
        ),
    )

    worker = subparsers.add_parser(
        "worker",
        help="start a trial worker daemon for distributed execution",
    )
    worker.add_argument(
        "--listen",
        default="tcp://127.0.0.1:0",
        help=(
            "address to listen on, tcp://HOST:PORT (default "
            "tcp://127.0.0.1:0 — port 0 picks a free port, printed on "
            "startup); point coordinators at it via 'repro run --executor'"
        ),
    )
    worker.add_argument(
        "--metrics",
        default=None,
        metavar="tcp://HOST:PORT",
        help=(
            "mount the Prometheus/JSON metrics endpoint on this address "
            "(GET /metrics, /metrics.json, /trace.json; scrape with "
            "'repro metrics')"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help="start the live traffic endpoint (replayable ingest, live stats)",
    )
    serve.add_argument(
        "--listen",
        default="tcp://127.0.0.1:0",
        help=(
            "address to listen on, tcp://HOST:PORT (default "
            "tcp://127.0.0.1:0 — port 0 picks a free port, printed on "
            "startup); drive it with repro.serve.client"
        ),
    )
    serve.add_argument(
        "--nodes", type=int, default=63, help="tree size per source (2**k - 1)"
    )
    serve.add_argument(
        "--algorithm",
        default="rotor-push",
        help="online algorithm every source's tree runs (see 'repro list')",
    )
    serve.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help=(
            "base of the per-source seed windows; replaying the ingest log "
            "reproduces the exact per-source costs for any value"
        ),
    )
    serve.add_argument(
        "--log-dir",
        default=None,
        help=(
            "ingest-log directory (created, must not exist non-empty): every "
            "accepted request is appended crash-safely for 'repro replay'"
        ),
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help=(
            "max pending batches per session before requests are answered "
            "with 'busy' backpressure instead of being buffered"
        ),
    )
    serve.add_argument(
        "--metrics",
        default=None,
        metavar="tcp://HOST:PORT",
        help=(
            "mount the Prometheus/JSON metrics endpoint on this address "
            "(GET /metrics, /metrics.json, /trace.json; scrape with "
            "'repro metrics')"
        ),
    )

    def snapshot_interval_type(value: str) -> float:
        try:
            seconds = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--metrics-snapshot-interval must be a number of seconds, "
                f"got {value!r}"
            ) from None
        if not seconds > 0:
            raise argparse.ArgumentTypeError(
                "--metrics-snapshot-interval must be a positive number of "
                f"seconds, got {value!r}"
            )
        return seconds

    serve.add_argument(
        "--metrics-snapshot-interval",
        type=snapshot_interval_type,
        default=10.0,
        help=(
            "seconds between JSONL metrics snapshots appended to "
            "<log-dir>/metrics.jsonl (only with --log-dir; the replay "
            "reader ignores the file)"
        ),
    )

    replay = subparsers.add_parser(
        "replay",
        help="rerun a recorded ingest log bit-identically via repro.run",
    )
    replay.add_argument("log", help="ingest-log directory written by 'repro serve'")
    replay.add_argument("--jobs", type=jobs_type, default=None, help=jobs_help)
    replay.add_argument(
        "--csv-dir", default=None, help="directory for CSV exports"
    )
    replay.add_argument(
        "--allow-mid-loss",
        action="store_true",
        help=(
            "salvage a log corrupted before its tail (replays what precedes "
            "the damage; a torn tail alone never needs this)"
        ),
    )

    cache = subparsers.add_parser(
        "cache",
        help="inspect or maintain a checkpoint store",
    )
    cache.add_argument(
        "action",
        choices=["stats", "verify", "prune"],
        help=(
            "stats: entry count, byte footprint and orphans (torn records "
            "and old-layout files); "
            "verify: re-check every entry's length and checksum; "
            "prune: drop corrupt and torn records and old-layout files "
            "(segments a live run holds are skipped)"
        ),
    )
    cache.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"checkpoint store directory (default: {DEFAULT_CACHE_DIR})",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable JSON output (stats action: entry/byte/orphan/"
            "corrupt counts) for CI and scrapers"
        ),
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="scrape and render metrics from a running daemon",
    )
    metrics.add_argument(
        "address",
        help=(
            "what to scrape: http://HOST:PORT for a daemon's --metrics "
            "endpoint, or tcp://HOST:PORT for a daemon's main protocol port "
            "(worker or serve — both answer a 'metrics' frame)"
        ),
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the raw registry snapshot as JSON instead of Prometheus text",
    )
    metrics.add_argument(
        "--trace",
        action="store_true",
        help="also fetch and print the span ring buffer (JSON)",
    )

    report = subparsers.add_parser("report", help="run all experiments and write EXPERIMENTS.md")
    report.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    report.add_argument("--output", default="EXPERIMENTS.md", help="output Markdown path")
    report.add_argument("--jobs", type=jobs_type, default=1, help=jobs_help)

    return parser


def _print_table(table: ResultTable, csv_dir: Optional[str]) -> None:
    print(table.format_text())
    print()
    if csv_dir is not None:
        path = Path(csv_dir) / f"{table.name}.csv"
        table.to_csv(str(path))
        print(f"(written to {path})")
        print()


def _print_result(result: object, csv_dir: Optional[str]) -> None:
    """Print any plan result: tables, stage dicts, the Q4 histogram pair."""
    from repro.sim.results import ResultTable

    if isinstance(result, ResultTable):
        _print_table(result, csv_dir)
        return
    if isinstance(result, dict):
        for value in result.values():
            _print_result(value, csv_dir)
        return
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], dict):
        from repro.experiments.plotting import histogram_chart

        histogram, summary = result
        print(histogram_chart("per-request cost difference", histogram))
        if "mean_difference" in summary:
            print(f"mean difference: {summary['mean_difference']:+.5f}")
        print()
        return
    print(result)


def _command_list() -> int:
    from repro.algorithms.registry import PAPER_ALGORITHMS, available_algorithms
    from repro.plans.io import golden_plan_names
    from repro.workloads.adversarial import registered_adversary_kinds
    from repro.workloads.spec import registered_kinds

    print("Algorithms:")
    for name in available_algorithms():
        marker = "*" if name in PAPER_ALGORITHMS else " "
        print(f"  {marker} {name}")
    print("(* = compared in the paper's evaluation)")
    print()
    print("Workload kinds (WorkloadSpec.create / plan documents):")
    for name in registered_kinds():
        print(f"  {name}")
    print()
    print("Adversary kinds (AdversarySpec.create / adversarial payloads):")
    for name in registered_adversary_kinds():
        print(f"  {name}")
    print()
    print("Experiment scales:")
    for name, scale in SCALES.items():
        print(
            f"  {name:8s} nodes={scale.n_nodes:6d} requests={scale.n_requests:8d} "
            f"trials={scale.n_trials}"
        )
    print()
    print(f"Golden plans (repro run <name>; {', '.join(SCALED_PLANS)} take --scale):")
    for name in golden_plan_names():
        print(f"  {name}")
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import PAPER_ALGORITHMS
    from repro.plans.execute import run as run_plan
    from repro.plans.model import RunConfig, TrialPlan
    from repro.workloads.spec import WorkloadSpec

    plan = TrialPlan(
        name="demo",
        n_nodes=args.nodes,
        workload=WorkloadSpec.create(
            "combined-locality",
            n_elements=args.nodes,
            zipf_exponent=args.zipf,
            repeat_probability=args.repeat,
        ),
        algorithms=tuple(PAPER_ALGORITHMS),
        config=RunConfig(
            n_requests=args.requests,
            n_trials=args.trials,
            n_jobs=args.jobs,
        ),
    )
    print(run_plan(plan).format_text())
    return 0


def resolve_run_plan(args: argparse.Namespace):
    """Resolve the ``run`` subcommand's plan with CLI overrides applied.

    The positional argument names either a JSON file (when the path exists)
    or a shipped golden plan; with ``--scale`` it must name a paper
    experiment, rebuilt by its plan builder at that scale.  Flags given on
    the command line override the plan's run shape, recursively over nested
    stages — the override precedence is "CLI wins", pinned by the CLI tests.
    """
    from repro.plans.io import load, load_golden_plan
    from repro.plans.model import plan_with_overrides

    path = Path(args.plan)
    scale = getattr(args, "scale", None)
    if scale is not None:
        if path.is_file() or args.plan not in SCALED_PLANS:
            raise PlanError(
                f"--scale needs the name of a paper experiment "
                f"({', '.join(SCALED_PLANS)}), got {args.plan!r}"
            )
        import repro.experiments

        plan = getattr(repro.experiments, f"build_{args.plan}_plan")(scale)
    elif path.is_file():
        plan = load(path)
    else:
        plan = load_golden_plan(args.plan)
    return plan_with_overrides(
        plan,
        n_jobs=args.jobs,
        n_trials=getattr(args, "trials", None),
        n_requests=getattr(args, "requests", None),
        max_retries=getattr(args, "max_retries", None),
        cache_dir=getattr(args, "cache_dir", None),
        executor=getattr(args, "executor", None),
    )


def _command_run(args: argparse.Namespace) -> int:
    from repro.plans.execute import run as run_plan

    try:
        plan = resolve_run_plan(args)
        result = run_plan(plan, resume=args.resume)
    except ReproError as error:
        # malformed documents, unknown registry names, bad run shapes —
        # all surface as one clean message
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    _print_result(result, args.csv_dir)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from repro.dist.worker import run_worker

    try:
        run_worker(args.listen, metrics=args.metrics)
    except ReproError as error:
        print(f"repro worker: {error}", file=sys.stderr)
        return 2
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_serve

    try:
        return run_serve(
            args.listen,
            n_nodes=args.nodes,
            algorithm=args.algorithm,
            base_seed=args.base_seed,
            log_dir=args.log_dir,
            queue_limit=args.queue_limit,
            metrics=args.metrics,
            metrics_snapshot_interval=args.metrics_snapshot_interval,
        )
    except ReproError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry.export import scrape
    from repro.telemetry.registry import render_prometheus

    try:
        result = scrape(args.address, include_trace=args.trace)
    except ReproError as error:
        print(f"repro metrics: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    sys.stdout.write(render_prometheus(result["metrics"]))
    if args.trace and result.get("trace") is not None:
        trace = result["trace"]
        print(
            f"# trace: {len(trace['spans'])} spans "
            f"(capacity {trace['capacity']}, dropped {trace['dropped']})"
        )
        for span in trace["spans"]:
            duration = span.get("duration")
            timing = "" if duration is None else f" {duration:.6f}s"
            attrs = "".join(
                f" {key}={value!r}"
                for key, value in sorted(span["attrs"].items())
            )
            print(f"# span {span['id']} {span['name']}{timing}{attrs}")
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    from repro.plans.execute import run as run_plan
    from repro.plans.model import plan_with_overrides
    from repro.serve.ingest import read_ingest_log
    from repro.serve.replay import build_replay_plan

    try:
        log = read_ingest_log(args.log, allow_mid_loss=args.allow_mid_loss)
        for anomaly in log.report.anomalies:
            print(f"repro replay: ingest log anomaly: {anomaly}", file=sys.stderr)
        plan = plan_with_overrides(build_replay_plan(log), n_jobs=args.jobs)
        result = run_plan(plan)
    except ReproError as error:
        print(f"repro replay: {error}", file=sys.stderr)
        return 2
    _print_result(result, args.csv_dir)
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from repro.resilience.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        if getattr(args, "json", False):
            report = store.verify()
            print(
                json.dumps(
                    {
                        "cache_dir": str(store.root),
                        "entries": stats["entries"],
                        "bytes": stats["bytes"],
                        "orphans": stats["orphans"],
                        "corrupt": len(report["corrupt"]),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"cache directory: {store.root}")
        print(f"entries:         {stats['entries']}")
        print(f"bytes:           {stats['bytes']}")
        print(f"orphans:         {stats['orphans']}")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"cache directory: {store.root}")
        print(f"ok entries:      {len(report['ok'])}")
        print(f"corrupt entries: {len(report['corrupt'])}")
        for key in report["corrupt"]:
            print(f"  corrupt: {key}")
        return 1 if report["corrupt"] else 0
    removed = store.prune()
    print(f"cache directory: {store.root}")
    print(f"removed corrupt entries: {removed['corrupt']}")
    print(f"removed orphans:         {removed['orphans']}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    report = generate_report(scale=args.scale, path=args.output, n_jobs=args.jobs)
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` console script.

    A reader that closes stdout early (``repro list | head -5``) ends any
    command quietly with status 0: stdout is pointed at ``/dev/null``.  A
    pipe that breaks only at the final flush keeps the command's status.
    """
    args = build_parser().parse_args(argv)
    command = {
        "list": lambda _args: _command_list(),
        "demo": _command_demo,
        "run": _command_run,
        "worker": _command_worker,
        "serve": _command_serve,
        "replay": _command_replay,
        "cache": _command_cache,
        "metrics": _command_metrics,
        "report": _command_report,
    }[args.command]
    status = 0
    try:
        status = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
