"""Shared fixtures and hypothesis strategies for the test suite.

Fixtures fall into three tiers:

* tiny hand-built instances (fast, deterministic, used everywhere);
* random instance factories (seeded numpy RNG);
* a session-scoped small :class:`~repro.simulation.experiments.Testbed`
  (synthetic fleet + learned model), shared because building one costs a
  couple of seconds.

The hypothesis strategies build *feasible* instances by construction so
property tests exercise the algorithms rather than the infeasibility path
(which has its own dedicated tests).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.critical import critical_contribution_multi, critical_contribution_single
from repro.core.fptas import fptas_min_knapsack
from repro.core.greedy import greedy_allocation_dense
from repro.core.multi_task import MultiTaskOutcome
from repro.core.rewards import ec_reward
from repro.core.single_task import SingleTaskOutcome
from repro.core.transforms import achieved_pos, pos_to_contribution
from repro.core.types import AuctionInstance, SingleTaskInstance, Task, UserType
from repro.simulation.experiments import Testbed, build_testbed

# --------------------------------------------------------------------- #
# Deterministic tiny instances
# --------------------------------------------------------------------- #


@pytest.fixture
def paper_example() -> SingleTaskInstance:
    """The §III-A example: 4 users, T = 0.9."""
    return SingleTaskInstance(
        requirement=pos_to_contribution(0.9),
        user_ids=(1, 2, 3, 4),
        costs=(3.0, 2.0, 1.0, 4.0),
        contributions=tuple(pos_to_contribution(p) for p in (0.7, 0.7, 0.5, 0.8)),
    )


@pytest.fixture
def small_single_task() -> SingleTaskInstance:
    """Six users with distinct costs/contributions; requirement needs ~3."""
    return SingleTaskInstance(
        requirement=1.5,
        user_ids=tuple(range(6)),
        costs=(4.0, 3.0, 5.0, 2.0, 6.0, 3.5),
        contributions=(0.9, 0.5, 1.1, 0.4, 1.3, 0.7),
    )


@pytest.fixture
def small_multi_task() -> AuctionInstance:
    """Three tasks, five single-minded users; feasible with headroom."""
    tasks = [Task(0, 0.8), Task(1, 0.8), Task(2, 0.7)]
    users = [
        UserType(1, cost=2.0, pos={0: 0.5, 1: 0.4}),
        UserType(2, cost=1.5, pos={0: 0.6, 2: 0.3}),
        UserType(3, cost=1.0, pos={1: 0.5, 2: 0.5}),
        UserType(4, cost=3.0, pos={0: 0.7, 1: 0.7, 2: 0.7}),
        UserType(5, cost=2.5, pos={0: 0.4, 1: 0.4, 2: 0.4}),
    ]
    return AuctionInstance(tasks, users)


# --------------------------------------------------------------------- #
# Random instance factories
# --------------------------------------------------------------------- #


def make_random_single_task(
    rng: np.random.Generator,
    n_users: int,
    requirement_fraction: float = 0.5,
) -> SingleTaskInstance:
    """A feasible random single-task instance.

    Requirement is a fraction of the total contribution, so the instance is
    feasible by construction but still forces a real selection.
    """
    costs = rng.uniform(0.5, 20.0, size=n_users)
    pos = rng.uniform(0.02, 0.9, size=n_users)
    contributions = [pos_to_contribution(p) for p in pos]
    return SingleTaskInstance(
        requirement=requirement_fraction * sum(contributions),
        user_ids=tuple(range(n_users)),
        costs=tuple(float(c) for c in costs),
        contributions=tuple(contributions),
    )


def make_random_multi_task(
    rng: np.random.Generator,
    n_users: int,
    n_tasks: int,
    requirement: float = 0.6,
) -> AuctionInstance:
    """A feasible random multi-task instance.

    Every user covers a random non-empty bundle; per-task requirements are
    lowered until each task's aggregate contribution covers it.
    """
    users = []
    for uid in range(n_users):
        size = int(rng.integers(1, n_tasks + 1))
        bundle = rng.choice(n_tasks, size=size, replace=False)
        pos = {int(j): float(rng.uniform(0.05, 0.8)) for j in bundle}
        users.append(UserType(uid, cost=float(rng.uniform(0.5, 10.0)), pos=pos))
    tasks = []
    for j in range(n_tasks):
        total_q = sum(u.contribution(j) for u in users)
        # Cap the requirement below what users can jointly provide.
        cap_pos = 1.0 - float(np.exp(-0.8 * total_q)) if total_q > 0 else 0.0
        tasks.append(Task(j, min(requirement, max(0.0, cap_pos))))
    return AuctionInstance(tasks, users)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# --------------------------------------------------------------------- #
# Oracle outcomes: each mechanism rebuilt from its named reference paths
# --------------------------------------------------------------------- #


def oracle_multi_outcome(
    instance: AuctionInstance,
    method: str = "threshold",
    compute_rewards: bool = True,
    alpha: float = 10.0,
) -> MultiTaskOutcome:
    """The multi-task mechanism rebuilt from its oracles: the dense trace,
    one full counterfactual rerun per winner, and the EC contract."""
    trace = greedy_allocation_dense(instance)
    rewards = {}
    if compute_rewards:
        for uid in trace.selected:
            q_bar = critical_contribution_multi(instance, uid, method)
            rewards[uid] = ec_reward(uid, q_bar, instance.user_by_id(uid).cost, alpha)
    winners = trace.selected_set
    per_task = {
        task.task_id: achieved_pos(
            [
                user.contribution(task.task_id)
                for user in instance.users
                if user.user_id in winners and task.task_id in user.task_set
            ]
        )
        for task in instance.tasks
    }
    return MultiTaskOutcome(
        winners=winners,
        rewards=rewards,
        social_cost=trace.total_cost(instance),
        achieved_pos=per_task,
        trace=trace,
    )


def oracle_single_outcome(
    instance: SingleTaskInstance, epsilon: float = 0.5, alpha: float = 10.0
) -> SingleTaskOutcome:
    """The single-task mechanism rebuilt from its oracles: the FPTAS
    allocation, one full-FPTAS-per-probe bisection per winner, and the EC
    contract."""
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
    return SingleTaskOutcome(
        winners=allocation.selected,
        rewards=rewards,
        social_cost=allocation.total_cost,
        achieved_pos=achieved_pos(
            [instance.contributions[instance.index_of(uid)] for uid in allocation.selected]
        ),
        allocation=allocation,
    )


# --------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------- #

costs_st = st.floats(min_value=0.5, max_value=20.0, allow_nan=False, allow_infinity=False)
pos_st = st.floats(min_value=0.01, max_value=0.95, allow_nan=False, allow_infinity=False)


@st.composite
def single_task_instances(draw, min_users: int = 2, max_users: int = 8):
    """Feasible single-task instances with a requirement that bites."""
    n = draw(st.integers(min_users, max_users))
    costs = tuple(draw(st.lists(costs_st, min_size=n, max_size=n)))
    pos = draw(st.lists(pos_st, min_size=n, max_size=n))
    contributions = tuple(pos_to_contribution(p) for p in pos)
    fraction = draw(st.floats(min_value=0.1, max_value=0.95))
    return SingleTaskInstance(
        requirement=fraction * sum(contributions),
        user_ids=tuple(range(n)),
        costs=costs,
        contributions=contributions,
    )


@st.composite
def multi_task_instances(draw, min_users: int = 2, max_users: int = 6, max_tasks: int = 4):
    """Feasible multi-task instances with small dimensions."""
    n_tasks = draw(st.integers(1, max_tasks))
    n_users = draw(st.integers(min_users, max_users))
    users = []
    for uid in range(n_users):
        bundle_size = draw(st.integers(1, n_tasks))
        bundle = draw(
            st.lists(
                st.integers(0, n_tasks - 1),
                min_size=bundle_size,
                max_size=bundle_size,
                unique=True,
            )
        )
        pos = {j: draw(pos_st) for j in bundle}
        users.append(UserType(uid, cost=draw(costs_st), pos=pos))
    tasks = []
    for j in range(n_tasks):
        total_q = sum(u.contribution(j) for u in users)
        fraction = draw(st.floats(min_value=0.1, max_value=0.9))
        target_pos = 1.0 - float(np.exp(-fraction * total_q)) if total_q > 0 else 0.0
        tasks.append(Task(j, max(0.0, min(target_pos, 0.99))))
    return AuctionInstance(tasks, users)


# --------------------------------------------------------------------- #
# Shared testbed (small but realistic)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def testbed() -> Testbed:
    """A small concentrated testbed shared across the session."""
    return build_testbed(n_taxis=150, seed=11, events_per_taxi=160)
