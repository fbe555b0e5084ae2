"""Bit-exact parity matrix: each mechanism against its named oracles.

The CSR greedy and the fast pricers are the only paths the mechanisms
run.  Their oracles stay as plain functions that no keyword reaches: the
dense full-rescan greedy (:func:`greedy_allocation_dense`), the per-winner
counterfactual reruns (:func:`critical_contribution_multi`) and the
per-probe full-FPTAS bisection (:func:`critical_contribution_single`).
Every observable the mechanisms produce (winner sets, greedy traces,
FPTAS allocations, critical bids, and reward contracts) must be
*bit-identical* to the oracle pipeline, not just approximately equal.
``MultiTaskOutcome``/``SingleTaskOutcome`` equality compares every field
except ``perf``, so whole-outcome ``==`` is exactly that contract.  The
matrix runs on hypothesis-generated instances, on instances of the
paper's Table III shapes, and on the known hard corners: gain ties
*created by contribution capping* and infeasible instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.errors import InfeasibleInstanceError
from repro.core.greedy import greedy_allocation, greedy_allocation_dense
from repro.core.multi_task import MultiTaskMechanism
from repro.core.single_task import SingleTaskMechanism
from repro.core.transforms import contribution_to_pos
from repro.core.types import AuctionInstance, Task, UserType

from ..conftest import (
    multi_task_instances,
    oracle_multi_outcome,
    oracle_single_outcome,
    single_task_instances,
)


@settings(deadline=None, max_examples=30)
@given(instance=multi_task_instances())
def test_greedy_traces_bit_identical(instance):
    assert greedy_allocation(instance, require_feasible=False) == (
        greedy_allocation_dense(instance, require_feasible=False)
    )


@pytest.mark.parametrize("method", ["threshold", "paper"])
@settings(deadline=None, max_examples=15)
@given(instance=multi_task_instances())
def test_multi_task_outcomes_bit_identical(method, instance):
    outcome = MultiTaskMechanism(critical_method=method).run(instance)
    oracle = oracle_multi_outcome(instance, method)
    assert outcome == oracle
    assert outcome.trace == oracle.trace and outcome.rewards == oracle.rewards


@settings(deadline=None, max_examples=15)
@given(instance=single_task_instances())
def test_single_task_outcomes_bit_identical(instance):
    """The mechanism reproduces the paper-literal pipeline: the FPTAS
    allocation, then one full-FPTAS-per-probe critical-bid search per
    winner, priced into an EC contract."""
    outcome = SingleTaskMechanism(epsilon=0.3).run(instance)
    oracle = oracle_single_outcome(instance, epsilon=0.3)
    assert outcome == oracle
    assert outcome.allocation == oracle.allocation and outcome.rewards == oracle.rewards


@settings(deadline=None, max_examples=10)
@given(instance=multi_task_instances())
def test_multi_task_full_matrix_agrees(instance):
    """Every run mode — rewards on or off, sequential or fanned-out
    pricing — produces the oracle's outcome."""
    mechanism = MultiTaskMechanism()
    for compute_rewards in (True, False):
        oracle = oracle_multi_outcome(instance, compute_rewards=compute_rewards)
        for max_workers in (1, 2):
            assert mechanism.run(
                instance, compute_rewards=compute_rewards, max_workers=max_workers
            ) == oracle, (compute_rewards, max_workers)


@pytest.mark.parametrize(("n_users", "n_tasks"), [(20, 20), (60, 30), (100, 50)])
def test_paper_shape_outcomes_match_oracle(testbed, n_users, n_tasks):
    """Table III shapes (bundles of 6–20 tasks) at three requirements:
    the hypothesis strategies above stop at 6 users and 4 tasks."""
    for requirement in (0.6, 0.8, 0.9):
        instance = testbed.generator.multi_task_instance(
            n_users, n_tasks, requirement=requirement, seed=n_users + n_tasks
        ).instance
        assert greedy_allocation(instance) == greedy_allocation_dense(instance)
        assert MultiTaskMechanism().run(instance) == oracle_multi_outcome(instance)


def test_capped_gain_tie_parity():
    """Capping equalizes users whose raw declarations differ; the lowest id
    must win the tie on both greedies, and pricing must agree exactly."""
    tasks = [Task(0, contribution_to_pos(1.0)), Task(1, contribution_to_pos(1.0))]
    users = [
        UserType(2, cost=2.0, pos={0: 0.9}),
        UserType(7, cost=2.0, pos={0: 0.8}),  # same capped gain; loses the id tie
        UserType(1, cost=2.5, pos={1: 0.7}),
    ]
    instance = AuctionInstance(tasks, users)
    outcome = MultiTaskMechanism().run(instance)
    assert outcome == oracle_multi_outcome(instance)
    assert outcome.winners == {1, 2}
    assert outcome.trace.selected[0] == 2  # capped tie broken by ascending id


def test_infeasible_error_parity():
    """The mechanism and the dense oracle refuse an uncoverable instance
    with the same payload."""
    tasks = [Task(0, 0.99), Task(1, 0.2)]
    users = [UserType(1, cost=1.0, pos={1: 0.5})]  # nobody senses task 0
    instance = AuctionInstance(tasks, users)
    errors = []
    for run in (MultiTaskMechanism().run, greedy_allocation_dense):
        with pytest.raises(InfeasibleInstanceError) as excinfo:
            run(instance)
        errors.append(excinfo.value)
    assert str(errors[0]) == str(errors[1])
    assert errors[0].uncoverable_tasks == errors[1].uncoverable_tasks
