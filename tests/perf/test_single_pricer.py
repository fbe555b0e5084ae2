"""Property tests: SingleTaskPricer equals the reference binary search.

The memoized pricer shares scaled costs, static subproblems, and prefix DP
snapshots across the ~31 win/lose probes of each winner's bisection; these
tests pin its critical bids to ``critical_contribution_single``'s
full-FPTAS-per-probe reference, plus the DP memory guard satellite.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.critical import critical_contribution_single
from repro.core.errors import CriticalBidError, ValidationError
from repro.core.fptas import MAX_DP_CELLS, fptas_min_knapsack
from repro.core.kernels import ENV_KERNEL, resolve_kernel
from repro.core.types import SingleTaskInstance
from repro.perf import PerfCounters, SingleTaskPricer, critical_contribution_single_fast

from ..conftest import make_random_single_task, single_task_instances

EPSILON = 0.5


@settings(deadline=None, max_examples=30)
@given(instance=single_task_instances())
def test_criticals_match_reference_for_all_winners(instance):
    winners = sorted(fptas_min_knapsack(instance, EPSILON).selected)
    pricer = SingleTaskPricer(instance, epsilon=EPSILON)
    batch = pricer.price_all(winners)
    for uid in winners:
        assert batch[uid] == critical_contribution_single(instance, uid, EPSILON)


def test_criticals_match_reference_on_random_instance(rng):
    instance = make_random_single_task(rng, n_users=25)
    winners = sorted(fptas_min_knapsack(instance, EPSILON).selected)
    counters = PerfCounters()
    pricer = SingleTaskPricer(instance, epsilon=EPSILON, counters=counters)
    for uid in winners:
        assert pricer.critical(uid) == critical_contribution_single(
            instance, uid, EPSILON
        )
    # The bisection's monotone win/loss bounds and shared DP state must
    # actually engage — that is the whole point of the memoized pricer.
    assert counters.wins_cache_hits > 0
    assert counters.fptas_dp_cells_reused > 0
    assert counters.wins_evaluations > 0


def test_module_level_helper_matches_class(rng):
    instance = make_random_single_task(rng, n_users=12)
    winners = sorted(fptas_min_knapsack(instance, EPSILON).selected)
    pricer = SingleTaskPricer(instance, epsilon=EPSILON)
    uid = winners[0]
    assert critical_contribution_single_fast(instance, uid, EPSILON) == pricer.critical(uid)


@pytest.mark.parametrize("kernel", ["reference", "vectorized"])
def test_cross_winner_prefix_batching(rng, kernel, monkeypatch):
    """Pricing all winners through one pricer resumes prefix snapshots
    across users: same prices as isolated pricers, fewer DP cells computed,
    with the savings on the reuse counter.  The kernel setting selects only
    the multi-task greedy, so either value leaves the DP work unchanged."""
    instance = make_random_single_task(rng, n_users=25)
    winners = sorted(fptas_min_knapsack(instance, EPSILON).selected)
    if len(winners) < 2:
        pytest.skip("needs at least two winners to share a prefix")
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    unset_counters = PerfCounters()
    unset = SingleTaskPricer(
        instance, epsilon=EPSILON, counters=unset_counters
    ).price_all(winners)
    monkeypatch.setenv(ENV_KERNEL, kernel)
    assert resolve_kernel() == kernel
    shared_counters = PerfCounters()
    shared = SingleTaskPricer(
        instance, epsilon=EPSILON, counters=shared_counters
    ).price_all(winners)
    isolated_counters = PerfCounters()
    for uid in winners:
        isolated = SingleTaskPricer(instance, epsilon=EPSILON, counters=isolated_counters)
        assert shared[uid] == isolated.critical(uid)
    assert shared_counters.fptas_dp_cells < isolated_counters.fptas_dp_cells
    assert shared_counters.fptas_dp_cells_reused > 0
    assert shared == unset
    assert shared_counters.fptas_dp_cells == unset_counters.fptas_dp_cells
    assert shared_counters.fptas_dp_cells_reused == unset_counters.fptas_dp_cells_reused


def test_price_all_order_invariance(rng):
    """The dict is keyed ascending by id and identical no matter how the
    caller orders the winner list — rank-ordered pricing is internal."""
    instance = make_random_single_task(rng, n_users=20)
    winners = sorted(fptas_min_knapsack(instance, EPSILON).selected)
    if len(winners) < 2:
        pytest.skip("needs at least two winners")
    pricer = SingleTaskPricer(instance, epsilon=EPSILON)
    forward = pricer.price_all(winners)
    backward = SingleTaskPricer(instance, epsilon=EPSILON).price_all(winners[::-1])
    assert forward == backward
    assert list(forward) == winners


def test_loser_raises_identical_critical_bid_error(small_single_task):
    winners = fptas_min_knapsack(small_single_task, EPSILON).selected
    losers = [uid for uid in small_single_task.user_ids if uid not in winners]
    assert losers, "fixture must have at least one loser"
    pricer = SingleTaskPricer(small_single_task, epsilon=EPSILON)
    with pytest.raises(CriticalBidError) as fast_err:
        pricer.critical(losers[0])
    with pytest.raises(CriticalBidError) as ref_err:
        critical_contribution_single(small_single_task, losers[0], EPSILON)
    assert str(fast_err.value) == str(ref_err.value)


def test_rejects_invalid_epsilon(small_single_task):
    with pytest.raises(ValidationError):
        SingleTaskPricer(small_single_task, epsilon=0.0)
    with pytest.raises(ValidationError):
        SingleTaskPricer(small_single_task, epsilon=float("nan"))


def _dp_bomb() -> SingleTaskInstance:
    """An instance whose scaled DP would vastly exceed MAX_DP_CELLS."""
    n = 10
    return SingleTaskInstance(
        requirement=2.0,
        user_ids=tuple(range(n)),
        costs=tuple(1.0 + 100.0 * i for i in range(n)),
        contributions=tuple(0.5 for _ in range(n)),
    )


def test_memory_guard_trips_in_fptas():
    # The DP must refuse up front on its n·(c_max+1) worst case.
    with pytest.raises(ValidationError, match="MAX_DP_CELLS"):
        fptas_min_knapsack(_dp_bomb(), epsilon=1e-9)
    assert MAX_DP_CELLS > 0  # the guard bound is a real, positive cap


def test_memory_guard_trips_in_pricer():
    instance = _dp_bomb()
    # Winner determination at a sane epsilon, pricing probes at a hostile one:
    # the pricer must refuse the oversized DP rather than allocate it.
    winners = sorted(fptas_min_knapsack(instance, EPSILON).selected)
    pricer = SingleTaskPricer(instance, epsilon=1e-9)
    with pytest.raises(ValidationError, match="MAX_DP_CELLS"):
        pricer.critical(winners[0])
