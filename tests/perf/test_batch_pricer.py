"""Property tests: BatchPricer is bit-identical to the reference reward scheme.

The batch engine replays counterfactual greedy runs from shared-prefix
snapshots with a lazy-greedy heap; these tests pin its output — winner sets,
traces, and critical bids — to ``critical_contribution_multi``'s per-user
full reruns, under hypothesis-generated instances and for both pricing
methods.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.critical import critical_contribution_multi
from repro.core.errors import ValidationError
from repro.core.greedy import greedy_allocation
from repro.core.types import AuctionInstance, Task, UserType
from repro.perf import BatchPricer, PerfCounters
from repro.perf.batch_pricer import _ResidualView

from ..conftest import make_random_multi_task, multi_task_instances


@settings(deadline=None, max_examples=40)
@given(instance=multi_task_instances())
@pytest.mark.parametrize("method", ["threshold", "paper"])
def test_prices_match_reference_for_all_users(instance, method):
    """Every user — winner or loser — gets the exact reference price."""
    pricer = BatchPricer(instance, method=method, require_feasible=False)
    batch = pricer.price_all()
    for user in instance.users:
        reference = critical_contribution_multi(instance, user.user_id, method)
        if user.user_id in pricer.trace.selected_set:
            assert batch[user.user_id] == reference
        else:
            assert pricer.price(user.user_id) == reference


@settings(deadline=None, max_examples=40)
@given(instance=multi_task_instances())
def test_master_trace_equals_greedy_allocation(instance):
    """The pricer's master run is greedy_allocation's loop: the same trace,
    the same work counters and the same ``greedy.select`` audit events."""
    pricer_counters, greedy_counters = PerfCounters(), PerfCounters()
    pricer_tracer, greedy_tracer = _RecordingTracer(), _RecordingTracer()
    pricer = BatchPricer(
        instance,
        counters=pricer_counters,
        require_feasible=False,
        tracer=pricer_tracer,
    )
    trace = greedy_allocation(
        instance,
        require_feasible=False,
        counters=greedy_counters,
        tracer=greedy_tracer,
    )
    assert pricer.trace == trace
    assert pricer_counters == greedy_counters
    assert pricer_tracer.events == greedy_tracer.events
    assert [name for name, _ in greedy_tracer.events] == ["greedy.select"] * len(
        trace.selected
    )


def test_prefix_reuse_counters_accumulate(rng):
    instance = make_random_multi_task(rng, n_users=30, n_tasks=5)
    counters = PerfCounters()
    pricer = BatchPricer(instance, counters=counters, require_feasible=False)
    pricer.price_all()
    assert counters.counterfactual_runs == len(pricer.trace.selected)
    # The first counterfactual (excluding the first winner) shares no prefix,
    # but later ones must: reuse has to show up on any multi-winner run.
    if len(pricer.trace.selected) > 1:
        assert counters.greedy_prefix_iterations_reused > 0
    assert counters.greedy_iterations > 0


def test_loser_price_reuses_full_master_trace(rng):
    instance = make_random_multi_task(rng, n_users=20, n_tasks=4)
    counters = PerfCounters()
    pricer = BatchPricer(instance, counters=counters, require_feasible=False)
    losers = [
        u.user_id for u in instance.users if u.user_id not in pricer.trace.selected_set
    ]
    if not losers:
        pytest.skip("instance has no losers")
    before = counters.greedy_iterations
    pricer.price(losers[0])
    # A loser's counterfactual is the master trace verbatim: no replay at all.
    assert counters.greedy_iterations == before
    assert counters.greedy_prefix_iterations_reused >= len(pricer.trace.iterations)


def test_parallel_price_all_matches_sequential(rng):
    instance = make_random_multi_task(rng, n_users=25, n_tasks=4)
    pricer = BatchPricer(instance, require_feasible=False)
    sequential = pricer.price_all()
    counters = PerfCounters()
    threaded = BatchPricer(instance, counters=counters, require_feasible=False)
    assert threaded.price_all(max_workers=2) == sequential
    # Per-worker counters are merged back into the shared instance.
    assert counters.counterfactual_runs == len(pricer.trace.selected)


@settings(deadline=None, max_examples=10)
@given(instance=multi_task_instances(min_users=3))
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("method", ["threshold", "paper"])
@pytest.mark.parametrize("baseline", ["vectorized", "reference"])
def test_fanout_parity_across_methods_and_kernels(instance, workers, method, baseline):
    """Explicit worker counts return, bit for bit, the prices of both
    baselines for every method: ``"vectorized"`` is the sequential CSR
    pricer, ``"reference"`` the per-winner counterfactual reruns of
    ``critical_contribution_multi``."""
    pricer = BatchPricer(instance, method=method, require_feasible=False)
    if baseline == "vectorized":
        expected = pricer.price_all(max_workers=1)
    else:
        expected = {
            uid: critical_contribution_multi(instance, uid, method)
            for uid in pricer.trace.selected
        }
    fanned = BatchPricer(instance, method=method, require_feasible=False).price_all(
        max_workers=workers
    )
    assert fanned == expected


def test_fanout_counters_merge_to_sequential_totals(rng):
    """Per-worker counters fold back into the shared instance: every count
    equals the sequential run's."""
    instance = make_random_multi_task(rng, n_users=30, n_tasks=5)
    seq_counters = PerfCounters()
    BatchPricer(instance, counters=seq_counters, require_feasible=False).price_all(
        max_workers=1
    )
    par_counters = PerfCounters()
    BatchPricer(instance, counters=par_counters, require_feasible=False).price_all(
        max_workers=3
    )
    for f in dataclasses.fields(PerfCounters):
        assert getattr(par_counters, f.name) == getattr(seq_counters, f.name), f.name


def test_auto_spec_keeps_small_auctions_sequential(rng, monkeypatch):
    """An auto-resolved count must not pay pool startup on a toy auction
    (far below the 32-winner fan-out floor); an explicit count always fans
    out."""
    from repro.perf import batch_pricer as bp

    instance = make_random_multi_task(rng, n_users=15, n_tasks=3)
    pools: list[int | None] = []
    real_pool = bp.ThreadPoolExecutor

    class SpyPool(real_pool):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(bp, "ThreadPoolExecutor", SpyPool)
    explicit_pricer = BatchPricer(instance, require_feasible=False)
    assert len(explicit_pricer.trace.selected) >= 2  # else workers clamp to 1
    explicit = explicit_pricer.price_all(max_workers=2)
    assert pools == [2]
    pools.clear()
    auto = BatchPricer(instance, require_feasible=False).price_all()
    assert pools == []
    assert auto == explicit


def test_rejects_unknown_method(small_multi_task):
    with pytest.raises(ValidationError):
        BatchPricer(small_multi_task, method="bogus")


def test_paper_method_never_takes_the_exit_path(rng):
    instance = make_random_multi_task(rng, n_users=30, n_tasks=5)
    counters = PerfCounters()
    pricer = BatchPricer(
        instance, method="paper", counters=counters, require_feasible=False
    )
    assert pricer.early_exit is False
    pricer.price_all()
    assert counters.pricing_early_exits == 0


def test_early_exit_fires_and_keeps_parity(rng):
    """On a winners-heavy instance the certificate fires, and prices still
    equal the reference loop (whose full reruns never exit)."""
    instance = make_random_multi_task(rng, n_users=40, n_tasks=5)
    counters = PerfCounters()
    pricer = BatchPricer(instance, counters=counters, require_feasible=False)
    exited = pricer.price_all()
    assert counters.pricing_early_exits > 0
    for uid in pricer.trace.selected:
        assert exited[uid] == critical_contribution_multi(instance, uid, "threshold")


def test_tiny_cost_winner_disarms_exit_but_keeps_parity():
    """The 1e-15 corner of ``_min_scale_for_gain``: a priced winner whose
    cost is tiny relative to the max cost could make an omitted iteration's
    ``required_gain`` vanish, where the threshold scan returns 0.0 rather
    than None — so the cost floor must disarm the certificate for that
    winner, and prices must still match the reference."""
    tasks = [Task(0, 0.9), Task(1, 0.8)]
    users = [
        UserType(0, cost=1e-5, pos={0: 0.6, 1: 0.5}),
        UserType(1, cost=1.0, pos={0: 0.7}),
        UserType(2, cost=1.2, pos={1: 0.7}),
        UserType(3, cost=2.0, pos={0: 0.5, 1: 0.4}),
    ]
    instance = AuctionInstance(tasks, users)
    pricer = BatchPricer(instance, require_feasible=False)
    prices = pricer.price_all()
    # cost floor: 1e-5 * 1e-12 <= 1e-15 * 2.0, so user 0 must not arm.
    assert pricer.early_exit is True
    for uid in pricer.trace.selected:
        assert prices[uid] == critical_contribution_multi(instance, uid, "threshold")


class _RecordingTracer:
    def __init__(self):
        self.events = []

    def event(self, name, **payload):
        self.events.append((name, payload))

    def span(self, name, **attrs):  # pragma: no cover - context only
        import contextlib

        return contextlib.nullcontext()


def test_progress_events_monotone_under_fanout(rng):
    """With thread fan-out, pricing.progress events stay monotone in `done`
    and end with a final event covering every winner."""
    instance = make_random_multi_task(rng, n_users=30, n_tasks=5)
    tracer = _RecordingTracer()
    pricer = BatchPricer(instance, tracer=tracer, require_feasible=False)
    pricer.price_all(max_workers=3)
    progress = [p for name, p in tracer.events if name == "pricing.progress"]
    assert progress, "fan-out must still emit heartbeats"
    dones = [p["done"] for p in progress]
    assert dones == sorted(dones)
    assert progress[-1].get("final") is True
    assert progress[-1]["done"] == len(pricer.trace.selected)
    assert all(p["total"] == len(pricer.trace.selected) for p in progress)


def test_residual_view_matches_dict_semantics():
    residual = np.array([0.5, 0.0, 1.25])
    view = _ResidualView(residual, {10: 0, 11: 1, 12: 2})
    assert view.get(10, 0.0) == 0.5
    assert view.get(11, 0.0) == 0.0
    assert view.get(12, 0.0) == 1.25
    assert view.get(99, 0.0) == 0.0  # absent task -> default, like dict.get
