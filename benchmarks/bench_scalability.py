"""Scalability: winner-determination running time vs instance size.

Theorems 3 and 6 bound the mechanisms by O(n⁴/ε) (single task) and O(n²t)
(multi task).  This bench measures wall-clock time across a size sweep and
checks the growth is polynomial-ish (no blow-up), which is the property
the paper's 'computational efficiency' claims care about in practice.

The **kernel n-sweep** (``run_kernel_sweep_multi``) grows that one point
into a scaling curve for the multi-task greedy: it times the CSR greedy
(``greedy_allocation``, recorded as ``vectorized``) against its dense
oracle (``greedy_allocation_dense``, recorded as ``reference``) at
increasing ``n``, asserts exact trace parity wherever both run, records
the CSR path's peak memory (tracemalloc), and lands the per-``n`` records
in ``BENCH_kernels.json`` at the repo root — so the curve, not a single
size, is tracked per change.  The dense oracle is capped at
``reference_max_n`` (its rescan is O(n·t) *per iteration* and would
dominate the benchmark's wall clock).  The whole 10⁵-user
auction is timed end to end, layer by layer, by ``e2ebench/``.

Full-size runs are marked ``perf`` and excluded from tier-1; run them with
``pytest benchmarks/bench_scalability.py -m perf``.  The smoke-size sweep
in ``tests/perf/test_bench_kernels_smoke.py`` drives the same functions on
every tier-1 run.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.fptas import fptas_min_knapsack
from repro.core.greedy import greedy_allocation, greedy_allocation_dense
from repro.core.transforms import contribution_to_pos
from repro.core.types import AuctionInstance, Task, UserType
from repro.simulation.experiments import ExperimentResult

BENCH_KERNEL_SWEEP_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
)


def run_scalability(testbed, n_values=(25, 50, 100), repeats=2):
    rows = []
    for n in n_values:
        single_times, multi_times = [], []
        for rep in range(repeats):
            g_s = testbed.generator.single_task_instance(n, seed=9000 + rep)
            start = time.perf_counter()
            fptas_min_knapsack(g_s.instance, 0.5)
            single_times.append(time.perf_counter() - start)

            g_m = testbed.generator.multi_task_instance(n, max(10, n // 2), seed=9100 + rep)
            start = time.perf_counter()
            greedy_allocation(g_m.instance)
            multi_times.append(time.perf_counter() - start)
        rows.append((n, float(np.mean(single_times)), float(np.mean(multi_times))))
    return ExperimentResult(
        experiment_id="scalability",
        description="winner-determination runtime vs instance size",
        headers=("n_users", "fptas_seconds", "greedy_seconds"),
        rows=tuple(rows),
    )


def test_scalability(benchmark, dense_testbed, record_result):
    result = benchmark.pedantic(
        lambda: run_scalability(dense_testbed), rounds=1, iterations=1
    )
    record_result(result, benchmark)

    fptas_times = result.column("fptas_seconds")
    greedy_times = result.column("greedy_seconds")
    # Everything completes fast at the paper's scales...
    assert max(fptas_times) < 10.0
    assert max(greedy_times) < 5.0
    # ...and quadrupling n does not blow past the polynomial envelope
    # (n^4 growth over a 4x size range is 256x; leave generous slack).
    assert fptas_times[-1] <= max(fptas_times[0], 1e-4) * 2000


# --------------------------------------------------------------------- #
# Kernel n-sweep: vectorized vs reference winner determination
# --------------------------------------------------------------------- #


def make_sparse_multi(
    n_users: int, n_tasks: int, seed: int, users_per_task: float = 0.75
) -> AuctionInstance:
    """A sparse multi-task instance sized for the kernel scaling sweep.

    Each user senses a bundle of at most three tasks (PoS ``U(0.02, 0.08)``,
    cost ``U(0.5, 5.0)``); each task requires ``users_per_task`` times the
    mean contribution of its potential contributors.  Winner counts then
    scale with ``t`` rather than ``n`` — the regime the ISSUE's headline
    targets (n=100k users over 1k tasks), where the dense kernel's O(n·t)
    rescan *per selection* is pure waste and the incremental CSR recompute
    touches only the few hundred rows sharing a still-open task.
    """
    rng = np.random.default_rng(seed)
    users = []
    per_task_q = np.zeros(n_tasks)
    per_task_contributors = np.zeros(n_tasks)
    for uid in range(n_users):
        size = int(rng.integers(1, min(3, n_tasks) + 1))
        bundle = rng.choice(n_tasks, size=size, replace=False)
        pos = {int(j): float(rng.uniform(0.02, 0.08)) for j in bundle}
        user = UserType(uid, cost=float(rng.uniform(0.5, 5.0)), pos=pos)
        users.append(user)
        for j in pos:
            per_task_q[j] += user.contribution(j)
            per_task_contributors[j] += 1
    tasks = []
    for j in range(n_tasks):
        mean_q = per_task_q[j] / max(per_task_contributors[j], 1.0)
        tasks.append(Task(j, contribution_to_pos(users_per_task * mean_q)))
    return AuctionInstance(tasks, users)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _peak_mb(fn) -> float:
    """Peak Python-side allocation (numpy included) of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def run_kernel_sweep_multi(
    n_values: tuple[int, ...] = (1_000, 5_000, 20_000, 100_000),
    reference_max_n: int = 20_000,
    seed: int = 4242,
    users_per_task: float = 3.0,
    measure_memory: bool = True,
) -> dict:
    """Time multi-task winner determination, CSR greedy vs dense oracle,
    across an n-sweep.

    Per point: ``t = max(10, n // 100)``; ``greedy_allocation`` always runs
    (wall clock + tracemalloc peak), ``greedy_allocation_dense`` runs up to
    ``reference_max_n`` (its per-iteration O(n·t) rescan dominates beyond
    that) with an **exact trace-equality assert** against the CSR run.
    ``users_per_task=3.0`` sets requirements so a few hundred winners are
    selected at the larger sizes — enough iterations to amortize the CSR
    greedy's fixed setup (CSR build + initial gains) against the dense
    oracle's per-iteration O(n·t) rescan.
    """
    points = []
    for n in n_values:
        t = max(10, n // 100)
        instance = make_sparse_multi(n, t, seed=seed + n, users_per_task=users_per_task)
        vec_seconds, vec_trace = _timed(lambda: greedy_allocation(instance))
        point = {
            "n_users": n,
            "n_tasks": t,
            "n_winners": len(vec_trace.selected),
            "vectorized_seconds": round(vec_seconds, 6),
        }
        if measure_memory:
            point["vectorized_peak_mb"] = round(
                _peak_mb(lambda: greedy_allocation(instance)), 3
            )
        if n <= reference_max_n:
            ref_seconds, ref_trace = _timed(lambda: greedy_allocation_dense(instance))
            assert vec_trace == ref_trace, f"dense oracle trace mismatch at n={n}"
            point["reference_seconds"] = round(ref_seconds, 6)
            point["speedup"] = round(ref_seconds / max(vec_seconds, 1e-12), 2)
        points.append(point)
    return {
        "benchmark": "kernel_sweep_multi",
        "seed": seed,
        "users_per_task": users_per_task,
        "sweep": points,
    }


def write_kernel_records(
    records: list[dict], path: Path = BENCH_KERNEL_SWEEP_PATH
) -> Path:
    """Merge sweep records into ``BENCH_kernels.json``, keyed by benchmark."""
    existing = {"records": {}}
    if path.exists():
        existing = json.loads(path.read_text())
        existing.setdefault("records", {})
    for record in records:
        existing["records"][record["benchmark"]] = record
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


@pytest.mark.perf
def test_kernel_scaling_full_size():
    """Acceptance sweep: ≥10x at the largest common size, 100k completes."""
    multi = run_kernel_sweep_multi()
    write_kernel_records([multi])
    from benchmarks.history import append_history

    append_history({multi["benchmark"]: multi})

    by_n = {p["n_users"]: p for p in multi["sweep"]}
    largest_common = max(n for n, p in by_n.items() if "speedup" in p)
    assert by_n[largest_common]["speedup"] >= 10.0, by_n[largest_common]

    print("\nkernel n-sweep (multi-task winner determination):")
    for p in multi["sweep"]:
        speed = f"{p['speedup']:.1f}x" if "speedup" in p else "—"
        print(
            f"  n={p['n_users']:>6} t={p['n_tasks']:>4}  "
            f"vec={p['vectorized_seconds']:.3f}s  speedup={speed}"
        )
