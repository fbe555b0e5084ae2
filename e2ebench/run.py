"""End-to-end benchmark of the crowdsensing mechanisms.

Run from the repository root::

    python3 e2ebench/run.py --workload paper --seed 42 --seconds 35 --trace 0

One call runs one workload (``paper`` or ``fleet``; see
``e2ebench/README.md``) in this process: a timed set-up, then identical
rounds of operations until ``--seconds`` is used up (at least one round),
each operation checked for correctness.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start to
the end of set-up), ``run_s`` (one round, each timed step at its fastest
over the run's rounds; see :func:`fastest_round`) and ``peak_rss_mb``.
``--trace 1`` reports the per-layer metrics instead: it alternates
untraced and traced rounds within the same budget, so the tracing
overhead is measured in the same process, and writes every span to
``spans.jsonl`` in the run directory
(``e2ebench/runs/<workload>-s<seed>-t<trace>/``).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def process_age() -> float:
    """Seconds since this process started (Linux ``/proc``; 0 elsewhere)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except OSError:
        return 0.0
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


AGE_AT_START = process_age()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["paper", "fleet"])
    parser.add_argument("--seed", type=int, default=None, help="input seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring budget")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def redirect_stdout(log_path: Path) -> int:
    """Point fd 1 at ``log_path`` and return a duplicate of the real stdout.

    The program's dependencies write to fd 1 directly (HiGHS prints solver
    notes from C), and C-buffered text would otherwise land after the
    result line when the process exits.
    """
    sys.stdout.flush()
    real = os.dup(1)
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.close(log)
    return real


def resolved_settings() -> dict:
    from repro.core.kernels import (
        resolve_kernel,
        resolve_price_backend,
        resolve_price_workers,
        resolve_workload_kernel,
    )

    workers = resolve_price_workers(None)
    return {
        "kernel": resolve_kernel(None),
        "workload_kernel": resolve_workload_kernel(None),
        "price_workers": "auto" if workers.auto else workers.count,
        "price_workers_resolved": workers.count,
        "price_backend": resolve_price_backend(None),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, budget: float, pattern, recorder, ops_per_round: int):
    """Run passes over ``pattern`` (``True`` = a traced round), reversing
    it on every other pass, until another pass would overrun ``budget``
    seconds; always at least one pass.

    Returns the rounds and the peak RSS after the first one: set-up plus
    one round, whatever the number of rounds (later rounds can only add
    heap fragmentation).
    """
    from workloads import Round

    rounds: list[tuple[bool, object]] = []
    first_peak = None
    start = time.perf_counter()
    for pass_index in itertools.count():
        for traced in pattern if pass_index % 2 == 0 else pattern[::-1]:
            # Start every round from the same heap: the previous round's
            # garbage would otherwise be collected at varying points in it.
            gc.collect()
            rnd = Round(recorder=recorder if traced else None)
            if traced:
                recorder.phase = f"round-{len(rounds)}"
                recorder.install()
            try:
                workload.run_round(rnd)
            except Exception:
                rnd.fail_all(["round"] * (ops_per_round - len(rnd.ops)))
            finally:
                if traced:
                    recorder.uninstall()
            rounds.append((traced, rnd))
            if first_peak is None:
                first_peak = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) * len(pattern) > budget:
            return rounds, first_peak


def fastest_round(rounds) -> float:
    """One round's time with each timed step at its fastest over ``rounds``.

    Every round runs the same steps in the same order, so step ``i`` of
    each round did the same work.  The host's other tenants slow a step
    by up to half for minutes at a time, which moves a round's median with
    them; the fastest repetition of each step is what the program itself
    costs.  Rounds cut short by an error are left out unless all were.
    """
    width = max(len(rnd.steps) for rnd in rounds)
    full = [rnd.steps for rnd in rounds if len(rnd.steps) == width]
    return sum(min(step) for step in zip(*full))


def layer_metrics(recorder, rounds) -> dict:
    from spans import COUNT_METRICS, TIME_METRICS

    traced = [(f"round-{k}", rnd) for k, (on, rnd) in enumerate(rounds) if on]
    plain = [rnd for on, rnd in rounds if not on]
    n = len(traced)
    setup_seconds = recorder.layer_seconds("setup")
    setup_counts = recorder.phase_counts("setup")
    round_seconds = [recorder.layer_seconds(phase) for phase, _ in traced]
    round_counts = [recorder.phase_counts(phase) for phase, _ in traced]

    metrics = {}
    for metric, layer in TIME_METRICS.items():
        value = setup_seconds.get(layer, 0.0) + sum(r.get(layer, 0.0) for r in round_seconds) / n
        metrics[metric] = {"value": value, "unit": "s"}
    for metric in COUNT_METRICS:
        value = setup_counts.get(metric, 0) + sum(r.get(metric, 0) for r in round_counts) / n
        metrics[metric] = {"value": value, "unit": "count"}
    traced_run = fastest_round([rnd for _, rnd in traced])
    untraced_run = fastest_round(plain)
    covered = sum(sum(r.values()) for r in round_seconds)
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": untraced_run, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run - untraced_run, "unit": "s"}
    metrics["trace.coverage"] = {
        "value": covered / sum(rnd.seconds for _, rnd in traced),
        "unit": "share",
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    # The benchmark runs the program's defaults: no inherited overrides.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    run_dir = HERE / "runs" / f"{args.workload}-s{seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    real_stdout = redirect_stdout(run_dir / "stdout.log")

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        recorder.active = True
    workload = cls(seed, run_dir)
    workload.setup()
    setup_s = AGE_AT_START + (time.perf_counter() - STARTED)
    if recorder is not None:
        recorder.active = False
        recorder.uninstall()

    # Traced runs pair each traced round with an untraced one, in the order
    # untraced, traced, traced, untraced, ..., so both kinds see the same
    # stretches of the host's load.
    pattern = (False, True) if args.trace else (False,)
    rounds, peak_mb = run_rounds(
        workload, args.seconds, pattern, recorder, workloads.OPS_PER_ROUND[args.workload]
    )

    ops = [op for _, rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if op[1] != "ok"]
    if args.trace:
        metrics = layer_metrics(recorder, rounds)
        recorder.write(run_dir / "spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": fastest_round([r for _, r in rounds]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {
        "correct": not any(op[1] == "check" for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": resolved_settings(),
        "setup_s": setup_s,
        "rounds": [{"traced": on, "seconds": r.seconds, "steps": r.steps} for on, r in rounds],
        "failures": failed,
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    for name, status, detail in failed:
        print(f"{name}: {status}: {detail}", file=sys.stderr)
    os.write(real_stdout, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
