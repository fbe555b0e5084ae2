"""Workload-engine scaling: fit and generate across an n-sweep.

PR 6/8 made the auction itself cheap at n=100k; this bench tracks the
other side of the pipeline — everything between raw traces and the
auction instance:

* **fit** — Markov fleet fitting: ``MarkovMobilityModel.from_sequences``
  (array counting, recorded as ``vectorized``) vs its per-taxi oracle
  ``from_sequences_reference`` (recorded as ``reference``);
* **generate** — ``WorkloadGenerator.multi_task_instance`` end to end
  (reach profiles, ranking, bundle assembly, feasibility repair) vs its
  per-taxi oracle ``multi_task_instance_reference``, with an exact
  instance-equality assert wherever both run.

Full-size runs are marked ``perf`` and write ``BENCH_workload.json`` at
the repo root plus one ledger line per record
(:mod:`benchmarks.history`); the sweep records use the same
``{"sweep": [...]}`` shape as ``BENCH_kernels.json``, so
:mod:`benchmarks.compare_bench` flags a regression at the sweep size
where it happens.  The smoke-size sweep in
``tests/perf/test_bench_workload_smoke.py`` drives the same functions on
every tier-1 run.

Synthetic traces are ring walks: each taxi starts at a random cell of a
``n_cells``-cell ring and steps −1/0/+1 per slot, giving the small
contiguous location support (~½ ``seq_len`` cells) real taxi traces
show, at any fleet size, generated as one array op per chunk.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.markov_kernel import SequenceChunk
from repro.workload.generator import WorkloadGenerator

BENCH_WORKLOAD_PATH = Path(__file__).resolve().parent.parent / "BENCH_workload.json"


# --------------------------------------------------------------------- #
# Synthetic trace substrate
# --------------------------------------------------------------------- #


def make_trace_chunk(
    n_taxis: int,
    seed: int,
    n_cells: int = 40,
    seq_len: int = 24,
) -> SequenceChunk:
    """A fleet chunk of ring-walk traces, built without per-taxi loops."""
    rng = np.random.default_rng(seed)
    start = rng.integers(0, n_cells, size=n_taxis)
    steps = rng.integers(-1, 2, size=(n_taxis, seq_len - 1))
    cells = np.empty((n_taxis, seq_len), dtype=np.int64)
    cells[:, 0] = start
    np.cumsum(steps, axis=1, out=steps)
    cells[:, 1:] = (start[:, None] + steps) % n_cells
    indptr = np.arange(n_taxis + 1, dtype=np.int64) * seq_len
    taxi_ids = np.arange(n_taxis, dtype=np.int64)
    return SequenceChunk(taxi_ids=taxi_ids, cells=cells.reshape(-1), indptr=indptr)


def chunk_to_sequences(chunk: SequenceChunk) -> dict[int, list[int]]:
    """The mapping form of a chunk (what ``from_sequences`` consumes)."""
    return {
        int(chunk.taxi_ids[row]): chunk.sequence_of(row).tolist()
        for row in range(chunk.n_taxis)
    }


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _instances_equal(a, b) -> bool:
    """Bit-exact equality of two generated multi-task instances."""
    ia, ib = a.instance, b.instance
    if a.repair != b.repair or a.taxi_of_user != b.taxi_of_user:
        return False
    if a.task_cells != b.task_cells:
        return False
    if [(t.task_id, t.requirement) for t in ia.tasks] != [
        (t.task_id, t.requirement) for t in ib.tasks
    ]:
        return False
    return [(u.user_id, u.cost, u.pos) for u in ia.users] == [
        (u.user_id, u.cost, u.pos) for u in ib.users
    ]


# --------------------------------------------------------------------- #
# Fit + generate n-sweep
# --------------------------------------------------------------------- #


def run_workload_sweep(
    n_values: tuple[int, ...] = (1_000, 10_000, 100_000),
    reference_max_n: int = 100_000,
    seed: int = 4242,
    n_tasks: int = 15,
    measure_memory: bool = True,
) -> dict:
    """Time fleet fitting and instance generation, array path vs per-taxi
    oracle, across ``n``.

    Per point ``n`` taxis produce an ``n_users = n // 2`` multi-task
    instance over ``n_tasks`` pool cells.  The array path always runs; the
    oracle runs up to ``reference_max_n`` with a bit-exact
    instance-equality assert.  ``fit_seconds`` covers the fit;
    ``generate_seconds`` covers generator construction, the (lazy) profile
    build, and the instance — the full trace-to-auction path after
    fitting.
    """
    points = []
    for n in n_values:
        chunk = make_trace_chunk(n, seed=seed + n)
        sequences = chunk_to_sequences(chunk)
        n_users = n // 2

        vec_fit_s, vec_model = _timed(
            lambda: MarkovMobilityModel.from_sequences(sequences)
        )

        def _vec_generate():
            generator = WorkloadGenerator(vec_model)
            return generator.multi_task_instance(n_users, n_tasks, seed=seed)

        vec_gen_s, vec_instance = _timed(_vec_generate)
        point = {
            "n_users": n_users,
            "n_taxis": n,
            "n_tasks": n_tasks,
            "vectorized_fit_seconds": round(vec_fit_s, 6),
            "vectorized_generate_seconds": round(vec_gen_s, 6),
            "vectorized_seconds": round(vec_fit_s + vec_gen_s, 6),
        }
        if measure_memory:
            point["vectorized_peak_mb"] = round(_peak_mb(_vec_generate), 3)
        if n <= reference_max_n:
            ref_fit_s, ref_model = _timed(
                lambda: MarkovMobilityModel.from_sequences_reference(sequences)
            )

            def _ref_generate():
                generator = WorkloadGenerator(ref_model)
                return generator.multi_task_instance_reference(
                    n_users, n_tasks, seed=seed
                )

            ref_gen_s, ref_instance = _timed(_ref_generate)
            assert _instances_equal(vec_instance, ref_instance), (
                f"workload oracle mismatch at n={n}"
            )
            ref_total = ref_fit_s + ref_gen_s
            point["reference_fit_seconds"] = round(ref_fit_s, 6)
            point["reference_generate_seconds"] = round(ref_gen_s, 6)
            point["reference_seconds"] = round(ref_total, 6)
            point["speedup"] = round(
                ref_total / max(vec_fit_s + vec_gen_s, 1e-12), 2
            )
        points.append(point)
    return {
        "benchmark": "workload_sweep",
        "seed": seed,
        "n_tasks": n_tasks,
        "sweep": points,
    }


# --------------------------------------------------------------------- #
# Assembly micro-regression (the hoisted-set fix)
# --------------------------------------------------------------------- #


def run_assembly_scaling(
    small: tuple[int, int] = (300, 40),
    large: tuple[int, int] = (1_200, 160),
    seed: int = 99,
    repeats: int = 3,
) -> dict:
    """Oracle multi-task assembly cost when ``n`` and ``t`` grow together.

    Times ``multi_task_instance_reference``, the per-taxi loop.

    Before the hoisted-membership-set fix, assembly rebuilt
    ``set(kept_cells)`` / ``set(dropped)`` inside the per-user loop, an
    O(n·t) term that quadruples per axis — growing ``(n, t)`` by 4× each
    cost ~16×.  Fixed, the ratio tracks the ~4× growth in emitted bids.
    The full-size perf test asserts the ratio stays well under the
    quadratic envelope.
    """

    def _time_once(n_taxis: int, n_tasks: int) -> float:
        chunk = make_trace_chunk(n_taxis, seed=seed + n_taxis, n_cells=4 * n_tasks)
        sequences = chunk_to_sequences(chunk)
        model = MarkovMobilityModel.from_sequences_reference(sequences)
        generator = WorkloadGenerator(model)
        best = float("inf")
        for rep in range(repeats):
            elapsed, _ = _timed(
                lambda: generator.multi_task_instance_reference(
                    n_taxis // 2, n_tasks, seed=seed + rep
                )
            )
            best = min(best, elapsed)
        return best

    small_s = _time_once(*small)
    large_s = _time_once(*large)
    return {
        "benchmark": "workload_assembly_scaling",
        "seed": seed,
        "small": {"n_taxis": small[0], "n_tasks": small[1], "seconds": round(small_s, 6)},
        "large": {"n_taxis": large[0], "n_tasks": large[1], "seconds": round(large_s, 6)},
        "ratio": round(large_s / max(small_s, 1e-12), 2),
    }


# --------------------------------------------------------------------- #
# Dump + perf test
# --------------------------------------------------------------------- #


def write_workload_records(
    records: list[dict], path: Path = BENCH_WORKLOAD_PATH
) -> Path:
    """Merge records into ``BENCH_workload.json``, keyed by benchmark."""
    existing = {"records": {}}
    if path.exists():
        existing = json.loads(path.read_text())
        existing.setdefault("records", {})
    for record in records:
        existing["records"][record["benchmark"]] = record
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


@pytest.mark.perf
def test_workload_scaling_full_size():
    """Acceptance: ≥5× end-to-end at n≥100k taxis."""
    sweep = run_workload_sweep()
    assembly = run_assembly_scaling()
    write_workload_records([sweep, assembly])
    from benchmarks.history import append_history

    append_history({r["benchmark"]: r for r in (sweep, assembly)})

    by_n = {p["n_taxis"]: p for p in sweep["sweep"]}
    largest_common = max(n for n, p in by_n.items() if "speedup" in p)
    assert largest_common >= 100_000 and by_n[largest_common]["speedup"] >= 5.0, (
        by_n[largest_common]
    )

    # (n, t) grew 4x each: quadratic assembly would land near 16x; the
    # hoisted-set fix keeps the ratio near the ~4x bid growth.
    assert assembly["ratio"] < 10.0, assembly

    print("\nworkload n-sweep (fit + generate, multi-task):")
    for p in sweep["sweep"]:
        speed = f"{p['speedup']:.1f}x" if "speedup" in p else "—"
        print(
            f"  taxis={p['n_taxis']:>7} users={p['n_users']:>6}  "
            f"fit={p['vectorized_fit_seconds']:.3f}s  "
            f"gen={p['vectorized_generate_seconds']:.3f}s  speedup={speed}"
        )
    print(
        f"assembly scaling ratio (4x n, 4x t): {assembly['ratio']:.1f}x "
        "(quadratic would be ~16x)"
    )
