"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig5a
    python -m repro run fig3 --n-taxis 400 --seed 7
    python -m repro run all --json --workers 4
    python -m repro run fig5b --trace --quick --out-dir /tmp/demo
    python -m repro run all --resume runs/all-20260806-091500
    python -m repro report /tmp/demo
    python -m repro enqueue all --quick --out-dir /tmp/q
    python -m repro worker /tmp/q

Each experiment prints the same rows/series the paper's figure plots (see
EXPERIMENTS.md for the paper-vs-measured comparison; docs/RUNNING.md for
the full CLI guide).

Every ``run`` writes a run directory (default ``runs/<run-id>``) holding a
``MANIFEST.json`` provenance record, an ``events.jsonl`` event stream, a
``checkpoint.jsonl`` cell ledger, a ``metrics.json`` summary, and one CSV
per experiment.  Experiments execute as *cell grids*: ``--workers N``
shards the cells over N processes (``--workers 1``, the default, is the
bit-exact serial path — parallel runs produce identical CSVs and metrics);
``--resume <run-dir>`` re-opens an interrupted run and recomputes only the
cells its checkpoint is missing.  ``--trace`` additionally streams the
full span hierarchy and auction audit trail into the JSONL; ``report``
reconstructs stage timings, reuse fractions, and per-winner payment
explanations from that directory alone.

For multi-process (or multi-host, over a shared filesystem) runs,
``enqueue`` populates a SQLite cell queue (``queue.db``) instead of
executing anything, any number of ``worker`` processes drain it with
crash-safe lease reclamation, and ``run --resume <dir> --backend sqlite``
aggregates the drained cells into the usual CSVs — byte-identical to a
serial ``run``.  See docs/DISTRIBUTED.md for the operator's guide.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .obs import EventLog, RunManifest, Tracer, build_report, format_report, new_run_id
from .obs.dashboard import watch_dashboard, write_dashboard
from .obs.metrics import MetricsRegistry
from .obs.profiler import build_profile, write_profile
from .obs.progress import PROGRESS_SUFFIX, format_progress, progress_printer
from .simulation import experiments as exp
from .queue import (
    QUEUE_DB_NAME,
    JsonlBackend,
    QueueWorker,
    SqliteBackend,
    default_worker_id,
    enqueue_grids,
)
from .queue.worker import tuplify_overrides
from .simulation.checkpoint import CHECKPOINT_NAME
from .simulation.parallel import ExperimentRunner

#: experiment id -> (driver, testbed kind); ids double as GRIDS keys.
EXPERIMENTS = {
    "fig3": (exp.run_fig3, "citywide"),
    "fig4": (exp.run_fig4, "citywide"),
    "fig5a": (exp.run_fig5a, "dense"),
    "fig5b": (exp.run_fig5b, "dense"),
    "fig5c": (exp.run_fig5c, "dense"),
    "fig6": (exp.run_fig6, "dense"),
    "fig7": (exp.run_fig7, "dense"),
    "fig8": (exp.run_fig8, "dense"),
    "fig9": (exp.run_fig9, "dense"),
    "sweep-single": (exp.run_sweep_single, "dense"),
    "ablation-epsilon": (exp.run_ablation_epsilon, "dense"),
    "ablation-delta-q": (exp.run_ablation_delta_q, "dense"),
    "ablation-smoothing": (exp.run_ablation_smoothing, "citywide"),
}

#: Small per-driver overrides for ``--quick``: minutes become seconds while
#: every driver still exercises its full code path (spans, audit, CSV).
QUICK_OVERRIDES = {
    "fig3": {"m_values": (3, 9)},
    "fig4": {"bins": 10},
    "fig5a": {"n_users_list": (10, 14), "repeats": 1},
    "fig5b": {"n_users_list": (10, 15), "n_tasks": 5, "repeats": 1},
    "fig5c": {"n_tasks_list": (5, 8), "n_users": 12, "repeats": 1},
    "fig6": {
        "single_task_runs": 2,
        "single_task_users": 12,
        "multi_task_users": 15,
        "multi_task_tasks": 6,
    },
    "fig7": {"n_users": 15, "n_tasks": 6, "repeats": 1},
    "fig8": {"requirements": (0.5, 0.7), "n_users": 15, "n_tasks": 8, "repeats": 1},
    "fig9": {"requirements": (0.5, 0.7), "n_users": 15, "n_tasks": 8, "repeats": 1},
    "sweep-single": {"n_users_list": (10, 14), "repeats": 1},
    "ablation-epsilon": {"epsilons": (1.0, 0.5), "n_users": 12, "repeats": 1},
    "ablation-delta-q": {
        "delta_q_values": (0.2, 0.1),
        "n_users": 12,
        "n_tasks": 6,
        "repeats": 1,
    },
    "ablation-smoothing": {"m_values": (3, 9)},
}


def _positive_int(value: str) -> int:
    """argparse type for counts that must be at least 1."""
    if not value.isdigit() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the ICDCS'17 crowdsensing-mechanism experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--n-taxis", type=int, default=250, help="fleet size (default 250)")
    run.add_argument("--seed", type=int, default=42, help="testbed RNG seed (default 42)")
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for cell execution (default 1 = serial; "
        "results are identical either way)",
    )
    run.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="cells per dispatch chunk (default: ~4 chunks per worker)",
    )
    run.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="RUN_DIR",
        help="re-open an interrupted run directory and compute only the "
        "cells missing from its checkpoint.jsonl",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document instead of tables",
    )
    run.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="run directory for manifest/events/CSVs (default runs/<run-id>)",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="stream the span hierarchy and auction audit trail to events.jsonl",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="print a live progress line for long phases (implies --trace: "
        "heartbeats ride the same event stream)",
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="shrink every experiment to a smoke-test size",
    )
    run.add_argument(
        "--backend",
        choices=["jsonl", "sqlite"],
        default="jsonl",
        help="cell-ledger backend: 'jsonl' (checkpoint.jsonl, the default, "
        "unchanged bit for bit) or 'sqlite' (queue.db — the store "
        "'repro worker' processes share); results are identical",
    )

    enqueue = sub.add_parser(
        "enqueue",
        help="populate a SQLite cell queue for 'repro worker' processes "
        "(no cells execute)",
    )
    enqueue.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    enqueue.add_argument(
        "--n-taxis", type=int, default=250, help="fleet size (default 250)"
    )
    enqueue.add_argument(
        "--seed", type=int, default=42, help="testbed RNG seed (default 42)"
    )
    enqueue.add_argument(
        "--quick",
        action="store_true",
        help="enqueue the smoke-test grid sizes (same shrink as 'run --quick')",
    )
    enqueue.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="queue directory for MANIFEST/queue.db/events.jsonl "
        "(default runs/<run-id>)",
    )
    enqueue.add_argument(
        "--set",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override one grid parameter (VALUE is JSON, e.g. "
        "--set 'n_users_list=[10,12,14]' --set repeats=5); repeatable, "
        "applied to every enqueued experiment",
    )

    worker = sub.add_parser(
        "worker", help="drain a queue directory written by 'enqueue'"
    )
    worker.add_argument(
        "run_dir", type=Path, help="queue directory holding queue.db"
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable identity for claims and events (default <host>-<pid>)",
    )
    worker.add_argument(
        "--lease",
        type=float,
        default=60.0,
        help="claim lease in seconds; a dead worker's cell is reclaimed "
        "after at most this long (default 60)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between claim attempts while peers hold leases "
        "(default 0.5)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after this many cells (default: drain the queue)",
    )

    report = sub.add_parser(
        "report", help="reconstruct a run from its manifest + events.jsonl"
    )
    report.add_argument("run_dir", type=Path, help="run directory written by 'run'")
    report.add_argument(
        "--json", action="store_true", help="emit the report as one JSON document"
    )
    report.add_argument(
        "--html",
        nargs="?",
        type=Path,
        const=True,
        default=None,
        metavar="PATH",
        help="render a self-contained HTML dashboard "
        "(default <run-dir>/report.html)",
    )
    report.add_argument(
        "--watch",
        action="store_true",
        help="with --html: re-render (atomically) whenever events.jsonl grows",
    )
    report.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="poll interval in seconds for --watch (default 2)",
    )
    report.add_argument(
        "--profile",
        action="store_true",
        help="write profile.json + profile.folded (flamegraph folded stacks) "
        "and print the self-time hotspot table",
    )
    return parser


def _open_resume(args: argparse.Namespace) -> tuple[str, Path, dict] | int:
    """Validate ``--resume`` against the prior run's manifest.

    Returns ``(run_id, out_dir, prior_config)`` or an exit code on
    refusal: a checkpoint only describes the configuration it was written
    under, so resuming with a different experiment set / seed / fleet /
    quick flag / ledger backend would silently mix incompatible results.
    The kernel and fan-out fields that older manifests carry are not
    compared: they never changed a cell's result.
    """
    out_dir = args.resume
    manifest_ok = (out_dir / "MANIFEST.json").exists()
    if not manifest_ok:
        print(f"error: no MANIFEST.json in {out_dir}", file=sys.stderr)
        return 2
    prior = RunManifest.load(out_dir)
    mismatches = []
    for label, ours, theirs in (
        ("experiment", args.experiment, prior.config.get("experiment")),
        ("seed", args.seed, prior.seed),
        ("n_taxis", args.n_taxis, prior.config.get("n_taxis")),
        ("quick", args.quick, prior.config.get("quick")),
        # A queue directory's cells live in queue.db, a classic run's in
        # checkpoint.jsonl; resuming with the wrong --backend would see an
        # empty ledger and silently recompute everything.
        ("backend", args.backend, prior.config.get("backend", "jsonl")),
    ):
        if ours != theirs:
            mismatches.append(f"{label}: run has {theirs!r}, command asks {ours!r}")
    if mismatches:
        print(
            f"error: cannot resume {out_dir} with a different configuration:\n  "
            + "\n  ".join(mismatches),
            file=sys.stderr,
        )
        return 2
    return prior.run_id, out_dir, dict(prior.config)


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.json:
        return _run_experiments(args)[0]
    # SciPy's HiGHS (reached through core/baselines.py) prints solver notes
    # to fd 1 itself, past sys.stdout.  Point fd 1 at stderr while the
    # experiments run (pool workers inherit it), so that stdout carries the
    # JSON document alone.
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        code, document = _run_experiments(args)
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
    if document is not None:
        print(json.dumps(document, indent=2, default=str))
    return code


def _run_experiments(args: argparse.Namespace) -> tuple[int, dict | None]:
    """Run the requested experiments; return the exit code and, under
    ``--json``, the document to print."""
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    quiet = args.json
    resume_overrides: dict | None = None
    if args.resume is not None:
        if args.out_dir is not None:
            print(
                "error: --resume already names the run directory; drop --out-dir",
                file=sys.stderr,
            )
            return 2, None
        opened = _open_resume(args)
        if isinstance(opened, int):
            return opened, None
        run_id, out_dir, prior_config = opened
        # A queue directory records the overrides its cells were enqueued
        # with (possibly --set customised); reuse them so the resumed run
        # resolves the exact same grid.  Pre-queue manifests have no
        # "overrides" key and fall back to the --quick rule below.
        resume_overrides = prior_config.get("overrides")
    else:
        run_id = new_run_id(args.experiment)
        out_dir = args.out_dir if args.out_dir is not None else Path("runs") / run_id

    if resume_overrides is not None:
        overrides_by_name = {
            name: tuplify_overrides(resume_overrides.get(name) or {}) for name in names
        }
    else:
        overrides_by_name = {
            name: (dict(QUICK_OVERRIDES.get(name, {})) if args.quick else {})
            for name in names
        }

    manifest = RunManifest(
        run_id=run_id,
        command="run",
        experiments=names,
        seed=args.seed,
        config={
            "n_taxis": args.n_taxis,
            "quick": args.quick,
            "trace": args.trace or args.progress,
            "experiment": args.experiment,
            "workers": args.workers,
            "chunk_size": args.chunk_size,
            "resumed": args.resume is not None,
            "backend": args.backend,
            "overrides": overrides_by_name,
        },
        events_file="events.jsonl",
    )
    manifest.write(out_dir)  # crash-safe: the directory identifies itself early

    started = time.perf_counter()
    summaries: list[dict] = []
    json_payload: list[dict] = []
    metrics = MetricsRegistry()
    with EventLog(out_dir / "events.jsonl") as log:
        sink = log.append
        if args.progress:
            # --progress implies tracing: heartbeats ride the event stream,
            # and the sink additionally mirrors them to one console line.
            printer = progress_printer()

            def sink(record: dict, _append=log.append, _print=printer) -> None:
                _append(record)
                name = record.get("name", "")
                if record.get("type") == "event" and name.endswith(PROGRESS_SUFFIX):
                    _print(
                        format_progress(
                            name[: -len(PROGRESS_SUFFIX)],
                            record.get("done", 0),
                            record.get("total"),
                            record.get("rate"),
                            record.get("eta_seconds"),
                        )
                    )

        trace_on = args.trace or args.progress
        tracer = Tracer(sink=sink, keep_records=False) if trace_on else None

        if args.workers <= 1:
            # Warm the testbed cache up front (workers build their own); the
            # event keeps testbed cost visible in `report` stage timings.
            for kind in sorted({EXPERIMENTS[n][1] for n in names}):
                if not quiet:
                    print(
                        f"# building {kind} testbed "
                        f"({args.n_taxis} taxis, seed {args.seed})..."
                    )
                build_start = time.perf_counter()
                exp.default_testbed(n_taxis=args.n_taxis, seed=args.seed, kind=kind)
                log.append(
                    {
                        "type": "event",
                        "span_id": None,
                        "name": "testbed.built",
                        "kind": kind,
                        "n_taxis": args.n_taxis,
                        "seed": args.seed,
                        "elapsed_seconds": time.perf_counter() - build_start,
                    }
                )

        if args.backend == "sqlite":
            ledger = SqliteBackend(out_dir / QUEUE_DB_NAME)
        else:
            ledger = JsonlBackend(out_dir / CHECKPOINT_NAME)
        completed = ledger.load_completed() if args.resume is not None else {}
        if args.resume is not None and not quiet:
            print(f"# resuming {run_id}: {len(completed)} cell(s) already checkpointed")
        with ledger, ExperimentRunner(
            workers=args.workers,
            n_taxis=args.n_taxis,
            seed=args.seed,
            chunk_size=args.chunk_size,
            tracer=tracer,
            metrics=metrics,
            backend=ledger,
            completed=completed,
        ) as runner:
            for name in names:
                overrides = overrides_by_name[name]
                result, stats = runner.run(name, overrides)
                manifest.cells[name] = stats
                csv_name = f"{name}.csv"
                result.save_csv(out_dir / csv_name)
                manifest.artifacts.append(csv_name)
                log.append(
                    {
                        "type": "event",
                        "span_id": None,
                        "name": "experiment.end",
                        "experiment": name,
                        "elapsed_seconds": stats["seconds"],
                        "n_rows": len(result.rows),
                        "cells_executed": stats["executed"],
                        "cells_skipped": stats["skipped"],
                    }
                )
                summaries.append(
                    {"experiment": name, "elapsed_seconds": stats["seconds"], **stats}
                )
                if quiet:
                    json_payload.append(
                        {
                            "experiment_id": result.experiment_id,
                            "description": result.description,
                            "headers": list(result.headers),
                            "rows": [list(row) for row in result.rows],
                            "extras": result.extras,
                            "elapsed_seconds": stats["seconds"],
                            "cells": stats,
                        }
                    )
                else:
                    print(result.to_table())
                    if result.extras:
                        for key, value in sorted(result.extras.items()):
                            print(f"# {key} = {value}")
                    skipped = (
                        f" ({stats['skipped']} cell(s) from checkpoint)"
                        if stats["skipped"]
                        else ""
                    )
                    print(f"# completed in {stats['seconds']:.1f}s{skipped}\n")

    if args.progress:
        sys.stderr.write("\n")  # release the \r-rewritten progress line
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    manifest.artifacts.append("metrics.json")
    manifest.wall_clock_seconds = time.perf_counter() - started
    manifest.write(out_dir)

    if quiet:
        return 0, {
            "run_id": run_id,
            "out_dir": str(out_dir),
            "wall_clock_seconds": manifest.wall_clock_seconds,
            "experiments": json_payload,
        }
    if len(names) > 1:
        print("# elapsed per experiment:")
        for entry in summaries:
            print(f"#   {entry['experiment']:<20} {entry['elapsed_seconds']:>8.1f}s")
        print(f"#   {'total':<20} {manifest.wall_clock_seconds:>8.1f}s")
    print(f"# run artifacts: {out_dir}")
    return 0, None


def _parse_set_overrides(pairs: list[str]) -> dict:
    """Parse repeated ``--set KEY=VALUE`` flags (VALUE is JSON).

    ``--set 'n_users_list=[10,12,14]'`` → ``{"n_users_list": (10, 12, 14)}``
    (lists become the tuples grid defaults use).  A VALUE that is not
    valid JSON is taken as a bare string, so ``--set foo=bar`` works.
    """
    overrides: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key.strip()] = value
    return tuplify_overrides(overrides)


def _cmd_enqueue(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        sets = _parse_set_overrides(args.set or [])
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    overrides_by_name = {}
    for name in names:
        overrides = dict(QUICK_OVERRIDES.get(name, {})) if args.quick else {}
        overrides.update(sets)
        overrides_by_name[name] = overrides

    run_id = new_run_id(f"queue-{args.experiment}")
    out_dir = args.out_dir if args.out_dir is not None else Path("runs") / run_id
    manifest = RunManifest(
        run_id=run_id,
        command="enqueue",
        experiments=names,
        seed=args.seed,
        config={
            # The same keys `run` records, so `run --resume <dir> --backend
            # sqlite` passes resume validation and aggregates the drain.
            "n_taxis": args.n_taxis,
            "quick": args.quick,
            "trace": False,
            "experiment": args.experiment,
            "workers": None,
            "chunk_size": None,
            "resumed": False,
            "backend": "sqlite",
            "overrides": overrides_by_name,
        },
        events_file="events.jsonl",
    )
    manifest.write(out_dir)
    with SqliteBackend(out_dir / QUEUE_DB_NAME) as backend:
        try:
            inserted = enqueue_grids(
                backend,
                names,
                overrides_by_name,
                n_taxis=args.n_taxis,
                seed=args.seed,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        counts = backend.counts()
    with EventLog(out_dir / "events.jsonl") as log:
        log.append(
            {
                "type": "event",
                "span_id": None,
                "name": "queue.enqueued",
                "experiments": names,
                "cells": sum(inserted.values()),
                "pending": counts["pending"],
            }
        )
    for name in names:
        print(f"# {name:<20} {inserted[name]:>4} cell(s) enqueued")
    print(f"# queue: {out_dir / QUEUE_DB_NAME} ({counts['pending']} pending)")
    print(f"# drain with:     python -m repro worker {out_dir}   (any number of shells)")
    print(f"# watch with:     python -m repro report {out_dir} --html --watch")
    print(
        f"# collect with:   python -m repro run {args.experiment} "
        f"--resume {out_dir} --backend sqlite"
        + (" --quick" if args.quick else "")
        + (f" --n-taxis {args.n_taxis}" if args.n_taxis != 250 else "")
        + (f" --seed {args.seed}" if args.seed != 42 else "")
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    db_path = run_dir / QUEUE_DB_NAME
    if not db_path.exists():
        print(
            f"error: no {QUEUE_DB_NAME} in {run_dir} (create one with "
            "'python -m repro enqueue')",
            file=sys.stderr,
        )
        return 2
    worker_id = args.worker_id or default_worker_id()
    with SqliteBackend(db_path) as backend:
        with EventLog(run_dir / "events.jsonl") as log:
            worker = QueueWorker(
                backend,
                worker_id=worker_id,
                lease_seconds=args.lease,
                poll_seconds=args.poll,
                max_cells=args.max_cells,
                event_sink=log.append,
            )
            print(
                f"# worker {worker_id} draining {db_path} "
                f"(lease {worker.lease_seconds:.0f}s)"
            )
            stats = worker.run()
        counts = backend.counts()
    print(
        f"# worker {worker_id}: {stats['done']} done, {stats['failed']} failed, "
        f"{stats['lost_leases']} lost lease(s) in {stats['seconds']:.1f}s"
    )
    print(
        "# queue now: "
        + ", ".join(f"{state}={count}" for state, count in counts.items())
    )
    return 1 if stats["failed"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    if not run_dir.exists():
        print(f"error: no such run directory: {run_dir}", file=sys.stderr)
        return 2
    if args.watch and args.html is None:
        print("error: --watch requires --html", file=sys.stderr)
        return 2

    if args.html is not None:
        out_path = None if args.html is True else args.html
        if args.watch:
            print(
                f"# watching {run_dir} (ctrl-c to stop); re-rendering on "
                "events.jsonl growth",
                file=sys.stderr,
            )
            try:
                watch_dashboard(
                    run_dir,
                    out_path,
                    interval=args.interval,
                    on_render=lambda path, n: print(
                        f"# render {n}: {path}", file=sys.stderr
                    ),
                )
            except KeyboardInterrupt:
                pass
        else:
            written = write_dashboard(run_dir, out_path)
            print(f"# wrote {written}")
    if args.profile:
        from .obs.events import read_events
        from .obs.manifest import MANIFEST_NAME, RunManifest

        events_file = "events.jsonl"
        if (run_dir / MANIFEST_NAME).exists():
            events_file = RunManifest.load(run_dir).events_file or events_file
        records = read_events(run_dir / events_file, tolerate_partial_tail=True)
        json_path, folded_path = write_profile(run_dir, records=records)
        print(build_profile(records).format())
        print(f"# wrote {json_path} and {folded_path}")
    if args.html is not None or args.profile:
        return 0

    report = build_report(run_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(format_report(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (driver, kind) in EXPERIMENTS.items():
            summary = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<20} [{kind:>8}]  {summary}")
        return 0
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "enqueue":
        return _cmd_enqueue(args)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
