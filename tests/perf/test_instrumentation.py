"""Tests for the perf instrumentation layer.

``PerfCounters`` holds work counters only; stage time has one source, the
tracer's spans, which ``build_report`` sums per span name.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.obs import Tracer, build_report
from repro.perf.batch_pricer import BatchPricer
from repro.perf.instrumentation import PerfCounters


def test_counters_start_at_zero():
    counters = PerfCounters()
    assert counters.greedy_iterations == 0
    assert counters.greedy_prefix_iterations_reused == 0
    assert counters.counterfactual_runs == 0
    assert counters.fptas_subproblems == 0
    assert counters.fptas_subproblems_cached == 0
    assert counters.fptas_dp_cells == 0
    assert counters.fptas_dp_cells_reused == 0
    assert counters.wins_evaluations == 0
    assert counters.wins_cache_hits == 0


def test_stage_timer_accumulates_across_blocks(tmp_path):
    """Two spans of one name add up in the span-derived stage table."""
    tracer = Tracer()
    with tracer.span("work"):
        time.sleep(0.01)
    first = tracer.spans[0].seconds
    with tracer.span("work"):
        time.sleep(0.01)
    report = build_report(tmp_path, records=tracer.records)
    assert report.stage_counts["work"] == 2
    assert report.stage_seconds["work"] > first  # accumulates, not replaces
    assert report.stage_seconds["work"] == sum(s.seconds for s in tracer.spans)


def test_stage_timer_records_on_exception(tmp_path):
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    report = build_report(tmp_path, records=tracer.records)
    assert report.stage_seconds["failing"] >= 0.0


def test_merge_sums_counters():
    a = PerfCounters()
    a.greedy_iterations = 3
    a.counterfactual_runs = 1

    b = PerfCounters()
    b.greedy_iterations = 4
    b.wins_cache_hits = 2

    a.merge(b)
    assert a.greedy_iterations == 7
    assert a.counterfactual_runs == 1
    assert a.wins_cache_hits == 2


def test_merge_under_thread_fanout_matches_sequential():
    """BatchPricer's worker-counter merge: fan-out totals == sequential totals."""
    from benchmarks.bench_pricing import make_winners_heavy_multi

    instance = make_winners_heavy_multi(n_users=40, n_tasks=8, seed=11)

    seq = BatchPricer(instance, require_feasible=False)
    seq_prices = seq.price_all()
    par = BatchPricer(instance, require_feasible=False)
    par_prices = par.price_all(max_workers=4)

    assert par_prices == seq_prices
    assert par.counters.to_dict() == seq.counters.to_dict()
    assert par.counters.counterfactual_runs == len(par.trace.selected)


def test_merge_equals_sum_of_per_worker_counters():
    """Explicit fan-out bookkeeping: merged == Σ per-worker counters."""
    from benchmarks.bench_pricing import make_winners_heavy_multi

    instance = make_winners_heavy_multi(n_users=30, n_tasks=6, seed=7)
    pricer = BatchPricer(instance, require_feasible=False)
    master = pricer.counters.to_dict()  # construction ran the master greedy

    workers = [PerfCounters() for _ in pricer.trace.selected]
    for uid, wc in zip(pricer.trace.selected, workers):
        pricer.price(uid, counters=wc)

    merged = PerfCounters()
    for wc in workers:
        merged.merge(wc)

    for field_name, total in merged.to_dict().items():
        assert total == sum(wc.to_dict()[field_name] for wc in workers)

    # And merging into the shared counters reproduces the fan-out totals:
    # master work + Σ workers == what price_all(max_workers=k) reports.
    reference = BatchPricer(instance, require_feasible=False)
    reference.price_all(max_workers=3)
    combined = {key: master[key] + value for key, value in merged.to_dict().items()}
    assert combined == reference.counters.to_dict()


def test_to_dict_round_trips_every_field():
    counters = PerfCounters()
    counters.fptas_dp_cells = 42
    as_dict = counters.to_dict()
    assert as_dict["fptas_dp_cells"] == 42
    assert set(as_dict) == {f.name for f in dataclasses.fields(PerfCounters)}
    # Plain-JSON types only (the benchmark dumps this verbatim).
    assert all(isinstance(k, str) for k in as_dict)
    assert all(isinstance(v, int) for v in as_dict.values())
