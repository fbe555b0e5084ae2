"""Tests for critical-bid computation (Algorithm 3 line 1, Algorithm 5)."""

import numpy as np
import pytest

from repro.core.baselines import exhaustive_single_task
from repro.core.critical import (
    critical_contribution_multi,
    critical_contribution_single,
    price_from_iterations,
)
from repro.core.errors import CriticalBidError, ValidationError
from repro.core.fptas import fptas_min_knapsack
from repro.core.greedy import greedy_allocation
from repro.core.transforms import pos_to_contribution
from repro.core.types import AuctionInstance, SingleTaskInstance, Task, UserType

from ..conftest import make_random_multi_task, make_random_single_task

EPSILON = 0.5

#: User 1 wins ({1, 2} at cost 3) and keeps winning down to q ≈ 0.1, where
#: {1, 3} (cost 4) still beats {2, 3} (cost 5): her critical bid is ≈ 0.1.
THREE_USERS = SingleTaskInstance(
    requirement=1.0,
    user_ids=(1, 2, 3),
    costs=(1.0, 2.0, 3.0),
    contributions=(0.6, 0.7, 0.9),
)


class TestCriticalSingle:
    def test_paper_example_figure2_boundary(self, paper_example):
        """Figure 2: with c3 = 1, user 3's selection boundary is p3 = 2/3.

        At p3 >= 2/3 the set {2, 3} (cost 3) beats {1, 2} (cost 5); below
        it user 3 is only in cost-5 optima that lose deterministic ties.
        Declaring 0.8 she wins, and her critical PoS must come out at 2/3.
        """
        declared = paper_example.with_contribution(3, pos_to_contribution(0.8))
        q_bar = critical_contribution_single(
            declared,
            3,
            epsilon=EPSILON,
            allocator=lambda inst: exhaustive_single_task(inst).selected,
        )
        assert 1 - np.exp(-q_bar) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_win_lose_flip_around_critical(self, rng):
        instance = make_random_single_task(rng, n_users=8)
        winners = fptas_min_knapsack(instance, EPSILON).selected
        uid = min(winners)
        q_bar = critical_contribution_single(instance, uid, epsilon=EPSILON)
        above = instance.with_contribution(uid, q_bar + 1e-6)
        assert uid in fptas_min_knapsack(above, EPSILON).selected
        if q_bar > 1e-6:
            below = instance.with_contribution(uid, q_bar - 1e-6)
            assert uid not in fptas_min_knapsack(below, EPSILON).selected

    def test_critical_not_above_declared(self, rng):
        instance = make_random_single_task(rng, n_users=8)
        winners = fptas_min_knapsack(instance, EPSILON).selected
        for uid in winners:
            q_bar = critical_contribution_single(instance, uid, epsilon=EPSILON)
            declared = instance.contributions[instance.index_of(uid)]
            assert q_bar <= declared + 1e-6

    def test_loser_raises(self, rng):
        instance = make_random_single_task(rng, n_users=8)
        winners = fptas_min_knapsack(instance, EPSILON).selected
        losers = set(instance.user_ids) - winners
        if losers:
            with pytest.raises(CriticalBidError):
                critical_contribution_single(instance, min(losers), epsilon=EPSILON)

    def test_tolerance_controls_bracket(self, small_single_task):
        winners = fptas_min_knapsack(small_single_task, EPSILON).selected
        uid = min(winners)
        coarse = critical_contribution_single(
            small_single_task, uid, epsilon=EPSILON, tolerance=1e-3
        )
        fine = critical_contribution_single(
            small_single_task, uid, epsilon=EPSILON, tolerance=1e-9
        )
        assert abs(coarse - fine) <= 1e-3 + 1e-9

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
    def test_bad_tolerance_rejected(self, tolerance):
        """At zero or below the bisection would never end; NaN would end it
        before the first probe, pricing at the bracket top (1.0 for a
        critical bid of 0.1)."""
        with pytest.raises(ValidationError, match="tolerance"):
            critical_contribution_single(
                THREE_USERS, 1, epsilon=EPSILON, tolerance=tolerance
            )

    @pytest.mark.parametrize("tolerance", [1e-17, 1e-20])
    def test_tolerance_below_float_spacing_ends(self, tolerance):
        """Once the bracket ends are adjacent floats the midpoint equals one
        of them; the search stops there instead of looping forever."""
        q_bar = critical_contribution_single(
            THREE_USERS, 1, epsilon=EPSILON, tolerance=tolerance
        )
        assert q_bar == pytest.approx(0.1, abs=1e-8)
        # The finer search continues inside the coarser one's last bracket.
        coarse = critical_contribution_single(
            THREE_USERS, 1, epsilon=EPSILON, tolerance=1e-15
        )
        assert coarse - 1e-15 <= q_bar <= coarse

    def test_custom_allocator(self, paper_example):
        """Pricing against the exact optimum instead of the FPTAS."""
        exact = lambda inst: exhaustive_single_task(inst).selected
        winners = exact(paper_example)
        for uid in winners:
            q_bar = critical_contribution_single(
                paper_example, uid, epsilon=EPSILON, allocator=exact
            )
            assert 0.0 <= q_bar <= paper_example.requirement + 1e-9


class TestCriticalMulti:
    def test_winner_wins_at_critical(self, small_multi_task):
        trace = greedy_allocation(small_multi_task)
        for uid in trace.selected:
            q_bar = critical_contribution_multi(small_multi_task, uid)
            assert q_bar >= 0.0
            # The winner's declared total contribution must be >= critical.
            declared = small_multi_task.user_by_id(uid).total_contribution()
            assert declared >= q_bar - 1e-9

    def test_paper_method_minimum_over_iterations(self):
        """Algorithm 5 literal: min over counterfactual iteration candidates."""
        instance = AuctionInstance(
            [Task(0, 0.8)],
            [
                UserType(1, cost=1.0, pos={0: 0.5}),
                UserType(2, cost=2.0, pos={0: 0.5}),
                UserType(3, cost=1.5, pos={0: 0.6}),
            ],
        )
        trace = greedy_allocation(instance)
        assert 1 in trace.selected
        q_bar = critical_contribution_multi(instance, 1, method="paper")
        # Rerun without user 1 and compute the candidates by hand.
        counterfactual = greedy_allocation(
            instance.without_user(1), require_feasible=False
        )
        cost_1 = 1.0
        candidates = [
            (cost_1 / it.cost) * it.gain for it in counterfactual.iterations
        ]
        assert q_bar == pytest.approx(min(candidates))

    def test_unknown_method_rejected(self, small_multi_task):
        with pytest.raises(ValidationError):
            critical_contribution_multi(small_multi_task, 1, method="bogus")

    @pytest.mark.parametrize("method", ["Paper", "bogus"])
    def test_price_from_iterations_rejects_unknown_method(self, method):
        """A misspelt method must not fall through to the threshold rule:
        user 2 of the MultiTaskMechanism docstring instance would get 0.0
        for "Paper", where "paper" prices her at 0.2231."""
        instance = AuctionInstance(
            tasks=[Task(0, 0.6), Task(1, 0.6)],
            users=[
                UserType(1, cost=2.0, pos={0: 0.5, 1: 0.5}),
                UserType(2, cost=1.5, pos={0: 0.6}),
                UserType(3, cost=1.5, pos={1: 0.6}),
            ],
        )
        user = instance.user_by_id(2)
        trace = greedy_allocation(instance.without_user(2), require_feasible=False)
        paper = price_from_iterations(user, trace.iterations, trace.satisfied, "paper")
        assert paper == pytest.approx(0.2231, abs=1e-4)
        with pytest.raises(ValidationError, match="method"):
            price_from_iterations(user, trace.iterations, trace.satisfied, method)

    def test_pivotal_user_with_no_competitors(self):
        instance = AuctionInstance(
            [Task(0, 0.5)], [UserType(1, cost=1.0, pos={0: 0.9})]
        )
        assert critical_contribution_multi(instance, 1) == 0.0

    def test_pivotal_user_with_partial_competition(self):
        # Without user 1, user 2 can still be (insufficiently) selected, so
        # the paper method yields the iteration's candidate; the threshold
        # method detects that user 1 is pivotal (the counterfactual run is
        # unsatisfied) and prices her at zero.
        instance = AuctionInstance(
            [Task(0, 0.9)],
            [
                UserType(1, cost=1.0, pos={0: 0.8}),
                UserType(2, cost=2.0, pos={0: 0.3}),
            ],
        )
        paper = critical_contribution_multi(instance, 1, method="paper")
        expected = (1.0 / 2.0) * pos_to_contribution(0.3)
        assert paper == pytest.approx(expected)
        assert critical_contribution_multi(instance, 1, method="threshold") == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_critical_below_declared_for_winners(self, seed):
        instance = make_random_multi_task(
            np.random.default_rng(seed), n_users=8, n_tasks=3
        )
        trace = greedy_allocation(instance, require_feasible=False)
        if not trace.satisfied:
            pytest.skip("random instance infeasible")
        for uid in trace.selected:
            q_bar = critical_contribution_multi(instance, uid)
            # Winners of the *first* iteration always satisfy this exactly;
            # later winners may have critical bids above their declared total
            # only within numerical noise of ties.
            assert q_bar >= 0.0
