"""Bit-exact parity matrix: vectorized vs reference kernels, both pricers.

The vectorized greedy kernel and the fast pricers are performance paths
only — every observable the mechanisms produce (winner sets, greedy
traces, FPTAS allocations, critical bids, and reward contracts) must be
*bit-identical* to the reference paths, not just approximately equal.
``MultiTaskOutcome``/``SingleTaskOutcome`` equality compares every field
except ``perf``, so whole-outcome ``==`` is exactly that contract.  The
matrix here crosses pricer × kernel for the multi-task mechanism and
pins both single-task pricers (whose FPTAS has a single dynamic program)
to the paper-literal allocation-then-bisection pipeline, on
hypothesis-generated instances, plus the known hard corners: gain ties
*created by contribution capping* and infeasible instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.critical import critical_contribution_single
from repro.core.errors import InfeasibleInstanceError
from repro.core.fptas import fptas_min_knapsack
from repro.core.greedy import greedy_allocation
from repro.core.multi_task import MultiTaskMechanism
from repro.core.rewards import ec_reward
from repro.core.single_task import SingleTaskMechanism
from repro.core.transforms import contribution_to_pos
from repro.core.types import AuctionInstance, Task, UserType

from ..conftest import multi_task_instances, single_task_instances


@settings(deadline=None, max_examples=30)
@given(instance=multi_task_instances())
def test_greedy_traces_bit_identical(instance):
    assert greedy_allocation(instance, require_feasible=False, kernel="vectorized") == (
        greedy_allocation(instance, require_feasible=False, kernel="reference")
    )


@pytest.mark.parametrize("pricing", ["fast", "reference"])
@settings(deadline=None, max_examples=15)
@given(instance=multi_task_instances())
def test_multi_task_outcomes_bit_identical(pricing, instance):
    vec = MultiTaskMechanism(pricing=pricing, kernel="vectorized").run(instance)
    ref = MultiTaskMechanism(pricing=pricing, kernel="reference").run(instance)
    assert vec == ref
    assert vec.trace == ref.trace and vec.rewards == ref.rewards


@pytest.mark.parametrize("pricing", ["fast", "reference"])
@settings(deadline=None, max_examples=15)
@given(instance=single_task_instances())
def test_single_task_outcomes_bit_identical(pricing, instance):
    """Either pricing path reproduces the paper-literal pipeline: the FPTAS
    allocation, then one full-FPTAS-per-probe critical-bid search per
    winner, priced into an EC contract."""
    epsilon, alpha = 0.3, 10.0
    outcome = SingleTaskMechanism(epsilon=epsilon, alpha=alpha, pricing=pricing).run(
        instance
    )
    allocation = fptas_min_knapsack(instance, epsilon)
    rewards = {
        uid: ec_reward(
            uid,
            critical_contribution_single(instance, uid, epsilon),
            instance.costs[instance.index_of(uid)],
            alpha,
        )
        for uid in sorted(allocation.selected)
    }
    assert outcome.allocation == allocation and outcome.winners == allocation.selected
    assert outcome.social_cost == allocation.total_cost
    assert outcome.rewards == rewards


@settings(deadline=None, max_examples=10)
@given(instance=multi_task_instances())
def test_multi_task_full_matrix_agrees(instance):
    """All four pricer × kernel combinations produce one and the same outcome."""
    baseline = MultiTaskMechanism(pricing="reference", kernel="reference").run(instance)
    for pricing in ("fast", "reference"):
        for kernel in ("vectorized", "reference"):
            assert MultiTaskMechanism(pricing=pricing, kernel=kernel).run(
                instance
            ) == baseline, (pricing, kernel)


def test_capped_gain_tie_parity():
    """Capping equalizes users whose raw declarations differ; the lowest id
    must win the tie in both kernels, and pricing must agree exactly."""
    tasks = [Task(0, contribution_to_pos(1.0)), Task(1, contribution_to_pos(1.0))]
    users = [
        UserType(2, cost=2.0, pos={0: 0.9}),
        UserType(7, cost=2.0, pos={0: 0.8}),  # same capped gain; loses the id tie
        UserType(1, cost=2.5, pos={1: 0.7}),
    ]
    instance = AuctionInstance(tasks, users)
    for pricing in ("fast", "reference"):
        vec = MultiTaskMechanism(pricing=pricing, kernel="vectorized").run(instance)
        ref = MultiTaskMechanism(pricing=pricing, kernel="reference").run(instance)
        assert vec == ref
        assert vec.winners == {1, 2}
        assert vec.trace.selected[0] == 2  # capped tie broken by ascending id


def test_infeasible_error_parity():
    """Both kernels refuse an uncoverable instance with the same payload."""
    tasks = [Task(0, 0.99), Task(1, 0.2)]
    users = [UserType(1, cost=1.0, pos={1: 0.5})]  # nobody senses task 0
    instance = AuctionInstance(tasks, users)
    errors = []
    for kernel in ("vectorized", "reference"):
        with pytest.raises(InfeasibleInstanceError) as excinfo:
            MultiTaskMechanism(kernel=kernel).run(instance)
        errors.append(excinfo.value)
    assert str(errors[0]) == str(errors[1])
    assert errors[0].uncoverable_tasks == errors[1].uncoverable_tasks
