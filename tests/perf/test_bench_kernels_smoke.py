"""Smoke-mode run of the kernel n-sweep benchmark (tier-1; full sizes `-m perf`).

Drives the exact functions behind ``BENCH_kernels.json`` at tiny sizes so
every tier-1 run proves the harness end to end: sparse instances build,
the CSR greedy and its dense oracle run, the trace parity assert *inside*
the sweep fires, and the records carry the per-point fields
``compare_bench`` expands.  Speedup magnitudes are not asserted here — at
smoke sizes the CSR greedy's fixed setup dominates; the ≥10x bar lives in
the ``perf``-marked full-size test.
"""

from __future__ import annotations

import json

from benchmarks.bench_scalability import (
    make_sparse_multi,
    run_kernel_sweep_multi,
    write_kernel_records,
)


def test_kernel_sweep_multi_smoke():
    record = run_kernel_sweep_multi(
        n_values=(150, 300), reference_max_n=300, seed=99, measure_memory=False
    )
    assert record["benchmark"] == "kernel_sweep_multi"
    assert [p["n_users"] for p in record["sweep"]] == [150, 300]
    for point in record["sweep"]:  # parity was asserted inside the sweep
        assert point["n_winners"] > 0
        assert point["vectorized_seconds"] > 0.0
        assert point["reference_seconds"] > 0.0
        assert "speedup" in point


def test_kernel_sweep_multi_caps_the_reference_kernel():
    record = run_kernel_sweep_multi(
        n_values=(120, 240), reference_max_n=120, seed=7, measure_memory=True
    )
    capped, uncapped = record["sweep"][1], record["sweep"][0]
    assert "speedup" in uncapped and "reference_seconds" in uncapped
    assert "speedup" not in capped and "reference_seconds" not in capped
    assert uncapped["vectorized_peak_mb"] > 0.0  # tracemalloc actually ran


def test_make_sparse_multi_is_deterministic():
    a = make_sparse_multi(60, 10, seed=3)
    b = make_sparse_multi(60, 10, seed=3)
    assert [u.pos for u in a.users] == [u.pos for u in b.users]
    assert [t.requirement for t in a.tasks] == [t.requirement for t in b.tasks]


def test_write_kernel_records_merges_by_benchmark(tmp_path):
    path = tmp_path / "kernels.json"
    write_kernel_records(
        [{"benchmark": "kernel_sweep_multi", "sweep": [{"n_users": 5}]}], path=path
    )
    write_kernel_records(
        [
            {"benchmark": "kernel_sweep_multi", "sweep": [{"n_users": 9}]},
            {"benchmark": "kernel_headline_auction", "n_users": 7},
        ],
        path=path,
    )
    records = json.loads(path.read_text())["records"]
    assert records["kernel_sweep_multi"]["sweep"] == [{"n_users": 9}]  # overwritten
    assert records["kernel_headline_auction"]["n_users"] == 7  # merged alongside
