"""Tests for the FPTAS winner determination (Algorithm 2, Theorems 2–3)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import InfeasibleInstanceError, ValidationError
from repro.core.baselines import exhaustive_single_task
from repro.core.fptas import _min_knapsack_scaled, fptas_min_knapsack
from repro.core.knapsack import solve_min_knapsack
from repro.core.types import SingleTaskInstance

from ..conftest import make_random_single_task, single_task_instances


class TestBasics:
    def test_zero_requirement_selects_nobody(self):
        instance = SingleTaskInstance(0.0, (1, 2), (1.0, 2.0), (0.5, 0.5))
        result = fptas_min_knapsack(instance, 0.5)
        assert result.selected == frozenset()
        assert result.total_cost == 0.0

    def test_infeasible_raises(self):
        instance = SingleTaskInstance(10.0, (1, 2), (1.0, 2.0), (0.5, 0.5))
        with pytest.raises(InfeasibleInstanceError):
            fptas_min_knapsack(instance, 0.5)

    def test_bad_epsilon_rejected(self, small_single_task):
        with pytest.raises(ValidationError):
            fptas_min_knapsack(small_single_task, 0.0)
        with pytest.raises(ValidationError):
            fptas_min_knapsack(small_single_task, -1.0)

    def test_selection_is_feasible(self, small_single_task):
        result = fptas_min_knapsack(small_single_task, 0.5)
        assert result.contribution >= small_single_task.requirement - 1e-9

    def test_reported_cost_matches_selection(self, small_single_task):
        result = fptas_min_knapsack(small_single_task, 0.5)
        assert result.total_cost == pytest.approx(
            small_single_task.cost_of(result.selected)
        )

    def test_deterministic(self, small_single_task):
        first = fptas_min_knapsack(small_single_task, 0.5)
        second = fptas_min_knapsack(small_single_task, 0.5)
        assert first.selected == second.selected

    def test_paper_example(self, paper_example):
        # T = 0.9: the optimum costs 5 ({1,2} or {3,4}); the FPTAS must be
        # within (1+eps) of that.
        result = fptas_min_knapsack(paper_example, 0.1)
        assert result.total_cost <= 5.0 * 1.1 + 1e-9
        assert result.contribution >= paper_example.requirement - 1e-9

    def test_single_user_instance(self):
        instance = SingleTaskInstance(0.5, (7,), (3.0,), (0.9,))
        result = fptas_min_knapsack(instance, 0.5)
        assert result.selected == frozenset({7})


class TestDynamicProgram:
    """The DP every subproblem runs, against Algorithm 1 as its oracle."""

    @given(
        items=st.lists(
            st.tuples(st.integers(0, 30), st.floats(0.0, 5.0)), min_size=1, max_size=10
        ),
        fraction=st.floats(0.05, 1.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_min_scaled_cost_matches_algorithm_1(self, items, fraction):
        costs = [c for c, _ in items]
        contributions = [q for _, q in items]
        requirement = fraction * sum(contributions)
        # The DP accepts sums within 1e-9 of Q, Algorithm 1 within 1e-12;
        # keep every subset sum clear of both.
        sums = [0.0]
        for q in contributions:
            sums += [s + q for s in sums]
        assume(all(abs(s - requirement) > 1e-9 for s in sums))

        solved = _min_knapsack_scaled(
            np.array(costs, dtype=np.int64), np.array(contributions), requirement
        )
        try:
            oracle = solve_min_knapsack(costs, contributions, requirement)
        except InfeasibleInstanceError:
            assert solved is None
            return
        assert solved is not None
        chosen, scaled_cost = solved
        assert scaled_cost == oracle.cost
        assert sum(costs[i] for i in chosen) == scaled_cost
        assert sum(contributions[i] for i in chosen) >= requirement


class TestApproximationGuarantee:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_ratio_against_exhaustive(self, epsilon, seed):
        rng = np.random.default_rng(seed)
        instance = make_random_single_task(rng, n_users=int(rng.integers(4, 11)))
        opt = exhaustive_single_task(instance)
        result = fptas_min_knapsack(instance, epsilon)
        assert result.total_cost <= (1.0 + epsilon) * opt.total_cost + 1e-9

    @given(single_task_instances())
    @settings(max_examples=40, deadline=None)
    def test_ratio_property(self, instance):
        opt = exhaustive_single_task(instance)
        for epsilon in (0.25, 1.0):
            result = fptas_min_knapsack(instance, epsilon)
            assert result.total_cost <= (1.0 + epsilon) * opt.total_cost + 1e-6
            assert result.contribution >= instance.requirement - 1e-9

    def test_small_epsilon_is_near_exact(self, rng):
        instance = make_random_single_task(rng, n_users=10)
        opt = exhaustive_single_task(instance)
        result = fptas_min_knapsack(instance, 0.01)
        assert result.total_cost == pytest.approx(opt.total_cost, rel=0.02)

    def test_tighter_epsilon_never_much_worse(self, rng):
        instance = make_random_single_task(rng, n_users=12)
        loose = fptas_min_knapsack(instance, 2.0)
        tight = fptas_min_knapsack(instance, 0.05)
        assert tight.total_cost <= loose.total_cost + 1e-9


class TestMonotonicity:
    """Lemma 1: raising a winner's contribution keeps her winning."""

    @pytest.mark.parametrize("seed", range(6))
    def test_winner_stays_winner_when_raising(self, seed):
        rng = np.random.default_rng(200 + seed)
        instance = make_random_single_task(rng, n_users=8)
        result = fptas_min_knapsack(instance, 0.5)
        for uid in result.selected:
            q = instance.contributions[instance.index_of(uid)]
            for factor in (1.1, 1.5, 3.0):
                raised = instance.with_contribution(uid, q * factor)
                raised_result = fptas_min_knapsack(raised, 0.5)
                assert uid in raised_result.selected, (
                    f"user {uid} lost after raising contribution x{factor}"
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_loser_stays_loser_when_lowering(self, seed):
        rng = np.random.default_rng(300 + seed)
        instance = make_random_single_task(rng, n_users=8)
        result = fptas_min_knapsack(instance, 0.5)
        losers = set(instance.user_ids) - result.selected
        for uid in losers:
            q = instance.contributions[instance.index_of(uid)]
            lowered = instance.with_contribution(uid, q * 0.5)
            lowered_result = fptas_min_knapsack(lowered, 0.5)
            assert uid not in lowered_result.selected


class TestDiagnostics:
    def test_result_metadata(self, small_single_task):
        result = fptas_min_knapsack(small_single_task, 0.5)
        assert result.epsilon == 0.5
        assert 1 <= result.winning_subproblem <= small_single_task.n_users
        assert result.scaled_objective >= 0.0
