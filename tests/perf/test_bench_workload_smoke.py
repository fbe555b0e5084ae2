"""Smoke-mode run of the workload engine benchmark (tier-1; full sizes `-m perf`).

Drives the exact functions behind ``BENCH_workload.json`` at tiny sizes
so every tier-1 run proves the harness end to end: synthetic traces
build, and the array path and its per-taxi oracle fit and generate with
the parity assert *inside* the sweep firing.  Speedup magnitudes are not asserted here — at smoke
sizes fixed setup dominates; the ≥5x bar lives in the ``perf``-marked
full-size test.
"""

from __future__ import annotations

import json

from benchmarks.bench_workload import (
    chunk_to_sequences,
    make_trace_chunk,
    run_assembly_scaling,
    run_workload_sweep,
    write_workload_records,
)


def test_workload_sweep_smoke():
    record = run_workload_sweep(
        n_values=(200, 400), reference_max_n=400, seed=21, n_tasks=6,
        measure_memory=False,
    )
    assert record["benchmark"] == "workload_sweep"
    assert [p["n_taxis"] for p in record["sweep"]] == [200, 400]
    for point in record["sweep"]:  # instance equality asserted inside
        assert point["n_users"] == point["n_taxis"] // 2
        assert point["vectorized_fit_seconds"] > 0.0
        assert point["vectorized_generate_seconds"] > 0.0
        assert point["reference_seconds"] > 0.0
        assert "speedup" in point


def test_workload_sweep_caps_the_reference_kernel():
    record = run_workload_sweep(
        n_values=(150, 300), reference_max_n=150, seed=13, n_tasks=6,
        measure_memory=True,
    )
    uncapped, capped = record["sweep"]
    assert "speedup" in uncapped and "reference_seconds" in uncapped
    assert "speedup" not in capped and "reference_seconds" not in capped
    assert uncapped["vectorized_peak_mb"] > 0.0  # tracemalloc actually ran


def test_assembly_scaling_smoke():
    record = run_assembly_scaling(small=(80, 8), large=(160, 16), repeats=1, seed=3)
    assert record["benchmark"] == "workload_assembly_scaling"
    assert record["small"]["seconds"] > 0.0
    assert record["large"]["seconds"] > 0.0
    assert record["ratio"] > 0.0


def test_make_trace_chunk_is_deterministic_and_offset():
    a = make_trace_chunk(50, seed=3)
    b = make_trace_chunk(50, seed=3)
    assert (a.cells == b.cells).all()
    assert a.taxi_ids.tolist() == list(range(50))  # ids start at offset 0
    seqs = chunk_to_sequences(a)
    assert len(seqs) == 50 and all(len(s) == 24 for s in seqs.values())


def test_write_workload_records_merges_by_benchmark(tmp_path):
    path = tmp_path / "workload.json"
    write_workload_records(
        [{"benchmark": "workload_sweep", "sweep": [{"n_taxis": 5}]}], path=path
    )
    write_workload_records(
        [
            {"benchmark": "workload_sweep", "sweep": [{"n_taxis": 9}]},
            {"benchmark": "workload_assembly_scaling", "ratio": 7},
        ],
        path=path,
    )
    records = json.loads(path.read_text())["records"]
    assert records["workload_sweep"]["sweep"] == [{"n_taxis": 9}]  # overwritten
    assert records["workload_assembly_scaling"]["ratio"] == 7  # merged alongside
