"""Benchmark: batch counterfactual pricing vs the reference reward schemes.

Measures the two pricing fast paths against their paper-literal references
on instances sized per the acceptance targets:

* **multi-task** — winners-heavy ``n=500, t=40``:
  :class:`repro.perf.batch_pricer.BatchPricer` (shared-prefix replay on
  the CSR contribution matrix) vs a ``critical_contribution_multi`` loop.
  Target: ≥ 5× on reward determination.
* **single-task** — ``n=100``:
  :class:`repro.perf.single_pricer.SingleTaskPricer` (memoized monotone
  FPTAS probes) vs ``critical_contribution_single``.  Target: ≥ 2×.
  The reference costs seconds *per winner*, so both paths price the same
  rank-spread subset of winners.
* **W-sweep** — ``BatchPricer`` alone at ~50 / ~150 / 493 winners on
  sparse instances up to ``n=100k, t=1k``, serially and fanned out.

Every record asserts **exact parity** (``==``, not approx) between fast and
reference prices before timing is trusted, and captures the
:class:`repro.perf.instrumentation.PerfCounters` evidence (prefix
iterations reused, DP cells reused, cache hits).  Results are merged into
``BENCH_pricing.json`` at the repo root.

The full-size run is marked ``perf`` and excluded from tier-1 (see
``pytest.ini``); run it with ``pytest benchmarks/bench_pricing.py -m perf``.
``tests/perf/test_bench_pricing_smoke.py`` drives the same functions at
small sizes on every tier-1 run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.critical import (
    critical_contribution_multi,
    critical_contribution_single,
)
from repro.core.fptas import fptas_min_knapsack
from repro.core.greedy import greedy_allocation
from repro.core.kernels import resolve_price_workers
from repro.core.transforms import contribution_to_pos, pos_to_contribution
from repro.core.types import AuctionInstance, SingleTaskInstance, Task, UserType
from repro.perf import BatchPricer, PerfCounters, SingleTaskPricer

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pricing.json"


# --------------------------------------------------------------------- #
# Instance generators
# --------------------------------------------------------------------- #


def make_winners_heavy_multi(
    n_users: int, n_tasks: int, seed: int, coverage: float = 0.8
) -> AuctionInstance:
    """A multi-task instance where most users end up winning.

    Per-user contributions are small relative to the task requirements
    (many cheap sensors, each barely moving a task's PoS), so the greedy
    must select a large fraction of the population — the regime where
    per-winner counterfactual reruns are most expensive and the ISSUE's
    ≥ 5× target is defined.
    """
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(n_users):
        size = int(rng.integers(1, min(3, n_tasks) + 1))
        bundle = rng.choice(n_tasks, size=size, replace=False)
        pos = {int(j): float(rng.uniform(0.02, 0.08)) for j in bundle}
        users.append(UserType(uid, cost=float(rng.uniform(0.5, 5.0)), pos=pos))
    tasks = []
    for j in range(n_tasks):
        total_q = sum(u.contribution(j) for u in users)
        # Require `coverage` of the task's aggregate contribution.
        tasks.append(Task(j, contribution_to_pos(coverage * total_q)))
    return AuctionInstance(tasks, users)


def make_rank_spread_single(n_users: int, seed: int) -> SingleTaskInstance:
    """A single-task instance whose winners span the cost ranking.

    Contributions grow (noisily) with cost so cost-efficient users exist at
    every rank; the FPTAS then picks winners across the spectrum, which
    exercises both the static-subproblem cache (low-``k`` subproblems) and
    the shared-prefix DP snapshots (high-rank winners).
    """
    rng = np.random.default_rng(seed)
    costs = np.sort(rng.uniform(0.5, 20.0, size=n_users))
    base = 0.05 + 0.85 * (costs - costs.min()) / (costs.max() - costs.min())
    pos = np.clip(base * rng.uniform(0.7, 1.3, size=n_users), 0.02, 0.95)
    contributions = tuple(pos_to_contribution(float(p)) for p in pos)
    return SingleTaskInstance(
        requirement=0.5 * sum(contributions),
        user_ids=tuple(range(n_users)),
        costs=tuple(float(c) for c in costs),
        contributions=contributions,
    )


# --------------------------------------------------------------------- #
# Timed comparisons
# --------------------------------------------------------------------- #


def _best_of(repeats: int, fn):
    """Best-of-``repeats`` wall clock plus the last return value."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_multi_bench(
    n_users: int = 500,
    n_tasks: int = 40,
    method: str = "threshold",
    seed: int = 42,
    repeats: int = 1,
    max_workers: int | None = None,
) -> dict:
    """Time reference vs fast multi-task reward determination.

    The fast timing includes BatchPricer construction (its master run
    duplicates winner determination), so the comparison is conservative:
    the reference side's original ``greedy_allocation`` is *not* counted.
    """
    instance = make_winners_heavy_multi(n_users, n_tasks, seed)
    trace = greedy_allocation(instance, require_feasible=False)

    def fast() -> tuple[dict[int, float], PerfCounters]:
        counters = PerfCounters()
        pricer = BatchPricer(
            instance, method=method, counters=counters, require_feasible=False
        )
        return pricer.price_all(max_workers=max_workers), counters

    def reference() -> dict[int, float]:
        return {
            uid: critical_contribution_multi(instance, uid, method)
            for uid in trace.selected
        }

    fast_seconds, (fast_prices, counters) = _best_of(repeats, fast)
    ref_seconds, ref_prices = _best_of(repeats, reference)

    assert ref_prices == fast_prices, "fast multi-task prices diverged from reference"
    executed = counters.greedy_iterations
    reused = counters.greedy_prefix_iterations_reused
    return {
        "benchmark": "multi_task_reward_determination",
        "n_users": n_users,
        "n_tasks": n_tasks,
        "method": method,
        "seed": seed,
        "n_winners": len(trace.selected),
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": ref_seconds / fast_seconds,
        "exact_parity": True,
        "counters": counters.to_dict(),
        "prefix_reuse_fraction": reused / max(1, executed + reused),
    }


def run_single_bench(
    n_users: int = 100,
    max_winners: int = 6,
    epsilon: float = 0.5,
    seed: int = 42,
    repeats: int = 1,
) -> dict:
    """Time reference vs fast single-task critical-bid search.

    Both paths price the same subset of winners, picked evenly across the
    cost ranking (the reference costs seconds per winner at ``n=100``, so
    pricing all of them would make the benchmark needlessly slow without
    changing the per-winner ratio).

    The fast timing includes an FPTAS winner determination; the
    reference side's allocation is *not* counted, so the comparison is
    conservative.
    """
    instance = make_rank_spread_single(n_users, seed)
    allocation = fptas_min_knapsack(instance, epsilon)
    winners = sorted(allocation.selected)
    if len(winners) > max_winners:
        idx = np.linspace(0, len(winners) - 1, max_winners).astype(int)
        winners = [winners[i] for i in idx]

    def fast() -> tuple[dict[int, float], PerfCounters]:
        counters = PerfCounters()
        fptas_min_knapsack(instance, epsilon, counters=counters)
        pricer = SingleTaskPricer(instance, epsilon=epsilon, counters=counters)
        return pricer.price_all(winners), counters

    def reference() -> dict[int, float]:
        return {
            uid: critical_contribution_single(instance, uid, epsilon)
            for uid in winners
        }

    fast_seconds, (fast_prices, counters) = _best_of(repeats, fast)
    ref_seconds, ref_prices = _best_of(repeats, reference)

    assert ref_prices == fast_prices, "fast single-task prices diverged from reference"
    return {
        "benchmark": "single_task_critical_pricing",
        "n_users": n_users,
        "epsilon": epsilon,
        "seed": seed,
        "n_winners_total": len(allocation.selected),
        "n_winners_priced": len(winners),
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": ref_seconds / fast_seconds,
        "exact_parity": True,
        "counters": counters.to_dict(),
    }


def run_w_sweep_point(
    n_users: int,
    n_tasks: int,
    seed: int,
    users_per_task: float = 0.75,
    max_workers: int | str | None = None,
) -> dict:
    """Time the pricing of every winner at one winner count.

    :class:`BatchPricer` (method ``"threshold"``, so with the early exit
    on) prices every winner of the same sparse instance (the scaling
    benchmark's generator) twice: serially (``max_workers=1``) and at the
    fan-out ``max_workers`` resolves to (``None``: the heuristic default a
    mechanism run gets).  Exact (``==``) price parity between the two is
    asserted before either timing is trusted.  The point carries no
    ``speedup``: the serial-to-fan-out ratio measures threads, not the
    pricing engine, so the history gate has nothing to compare here.
    """
    from benchmarks.bench_scalability import make_sparse_multi

    instance = make_sparse_multi(
        n_users, n_tasks, seed=seed, users_per_task=users_per_task
    )

    def timed(workers) -> tuple[float, dict[int, float], PerfCounters]:
        counters = PerfCounters()
        pricer = BatchPricer(
            instance, method="threshold", counters=counters, require_feasible=False
        )
        start = time.perf_counter()
        prices = pricer.price_all(max_workers=workers)
        return time.perf_counter() - start, prices, counters

    serial_s, serial_prices, _ = timed(1)
    fanout_s, fanout_prices, counters = timed(max_workers)
    assert serial_prices == fanout_prices, "fan-out prices diverged from serial"
    return {
        "n_users": n_users,
        "n_tasks": n_tasks,
        "seed": seed,
        "n_winners": len(fanout_prices),
        "serial_seconds": serial_s,
        "fanout_seconds": fanout_s,
        "fanout_workers": resolve_price_workers(max_workers).count,
        "early_exits": counters.pricing_early_exits,
        "exact_parity": True,
    }


def run_w_sweep(
    points: list[tuple[int, int]] | None = None,
    users_per_task: float = 0.75,
    max_workers: int | str | None = None,
) -> dict:
    """The winner-count sweep record (one :func:`run_w_sweep_point` per size).

    Default points reach ~50 / ~150 / 493 winners; the last is the
    ``n=100k, t=1k`` headline instance from the scaling benchmark.
    :mod:`benchmarks.compare_bench` expands a ``sweep`` into per-size
    pseudo-records (``…@n=<n_users>``), but only points with a
    ``speedup`` are gated, so these are recorded, not compared.
    """
    if points is None:
        points = [(10_000, 100), (30_000, 300), (100_000, 1_000)]
    sweep = [
        run_w_sweep_point(
            n, t, seed=4242 + n, users_per_task=users_per_task, max_workers=max_workers
        )
        for n, t in points
    ]
    return {
        "benchmark": "pricing_w_sweep",
        "n_users": max(n for n, _ in points),
        "method": "threshold",
        "users_per_task": users_per_task,
        "sweep": sweep,
    }


def write_records(records: list[dict], path: Path = BENCH_PATH) -> dict:
    """Merge records into the JSON dump, keyed by benchmark name + sizes."""
    payload: dict = {"records": {}}
    if path.exists():
        payload = json.loads(path.read_text())
    for record in records:
        key = f"{record['benchmark']}_n{record.get('n_users')}"
        payload["records"][key] = record
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# --------------------------------------------------------------------- #
# Full-size run (opt-in: pytest -m perf)
# --------------------------------------------------------------------- #


@pytest.mark.perf
def test_pricing_speedups_full_size():
    """The ISSUE's acceptance targets: ≥5× multi at n=500, ≥2× single at n=100."""
    multi = run_multi_bench(n_users=500, n_tasks=40, repeats=2)
    single = run_single_bench(n_users=100, max_winners=6, repeats=1)
    payload = write_records([multi, single])
    from benchmarks.history import append_history

    append_history(
        {
            key: payload["records"][key]
            for key in (
                f"{multi['benchmark']}_n{multi.get('n_users')}",
                f"{single['benchmark']}_n{single.get('n_users')}",
            )
        }
    )
    print(
        f"\nmulti n=500: {multi['speedup']:.2f}x "
        f"({multi['reference_seconds']:.2f}s -> {multi['fast_seconds']:.2f}s, "
        f"{multi['n_winners']} winners, "
        f"prefix reuse {multi['prefix_reuse_fraction']:.1%})"
    )
    print(
        f"single n=100: {single['speedup']:.2f}x "
        f"({single['reference_seconds']:.2f}s -> {single['fast_seconds']:.2f}s, "
        f"{single['n_winners_priced']} winners priced)"
    )
    assert multi["speedup"] >= 5.0
    assert single["speedup"] >= 2.0
    assert multi["counters"]["greedy_prefix_iterations_reused"] > 0
    assert single["counters"]["fptas_dp_cells_reused"] > 0


@pytest.mark.perf
def test_pricing_w_sweep_full_size():
    """Price every winner at ~50 / ~150 / 493 winners, serially and fanned
    out, with identical prices and the early-exit certificate firing at
    every size."""
    record = run_w_sweep()
    payload = write_records([record])
    from benchmarks.history import append_history

    key = f"{record['benchmark']}_n{record['n_users']}"
    append_history({key: payload["records"][key]})
    for point in record["sweep"]:
        print(
            f"\nw-sweep n={point['n_users']} winners={point['n_winners']}: "
            f"serial {point['serial_seconds']:.1f}s, "
            f"{point['fanout_workers']} workers {point['fanout_seconds']:.1f}s "
            f"({point['early_exits']} early exits)"
        )
        assert point["early_exits"] > 0
    assert record["sweep"][-1]["n_winners"] == 493
