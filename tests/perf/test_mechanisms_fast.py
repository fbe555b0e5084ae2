"""The mechanisms' fast pricers produce the pricing oracles' outcomes.

``MultiTaskMechanism`` prices through ``BatchPricer`` and
``SingleTaskMechanism`` through ``SingleTaskPricer``; their oracles are the
literal per-winner reruns of ``critical_contribution_multi`` and
``critical_contribution_single``.  Outcome dataclasses exclude ``perf``
from equality, so ``==`` compares winners, rewards, social cost, achieved
PoS, and traces.
"""

from __future__ import annotations

import pytest

from repro.core.multi_task import MultiTaskMechanism
from repro.core.single_task import SingleTaskMechanism
from repro.obs import Tracer, build_report

from ..conftest import (
    make_random_multi_task,
    make_random_single_task,
    oracle_multi_outcome,
    oracle_single_outcome,
)


@pytest.mark.parametrize("critical_method", ["threshold", "paper"])
def test_multi_task_outcomes_equal(small_multi_task, critical_method):
    fast = MultiTaskMechanism(critical_method=critical_method).run(small_multi_task)
    assert fast == oracle_multi_outcome(small_multi_task, critical_method)


def test_multi_task_outcomes_equal_random(rng):
    instance = make_random_multi_task(rng, n_users=25, n_tasks=4)
    fast = MultiTaskMechanism().run(instance)
    oracle = oracle_multi_outcome(instance)
    assert fast == oracle
    assert fast.rewards == oracle.rewards


def test_single_task_outcomes_equal(small_single_task):
    fast = SingleTaskMechanism().run(small_single_task)
    oracle = oracle_single_outcome(small_single_task)
    assert fast == oracle
    assert fast.rewards == oracle.rewards


def test_single_task_outcomes_equal_random(rng):
    instance = make_random_single_task(rng, n_users=15)
    assert SingleTaskMechanism().run(instance) == oracle_single_outcome(instance)


def test_fast_multi_outcome_carries_perf_evidence(small_multi_task, tmp_path):
    tracer = Tracer()
    outcome = MultiTaskMechanism().run(small_multi_task, tracer=tracer)
    perf = outcome.perf
    assert perf is not None
    assert perf.counterfactual_runs == len(outcome.winners)
    stages = build_report(tmp_path, records=tracer.records).stage_seconds
    assert "winner_determination" in stages
    assert "reward_determination" in stages


def test_fast_single_outcome_carries_perf_evidence(small_single_task, tmp_path):
    tracer = Tracer()
    outcome = SingleTaskMechanism().run(small_single_task, tracer=tracer)
    perf = outcome.perf
    assert perf is not None
    assert perf.wins_evaluations > 0
    stages = build_report(tmp_path, records=tracer.records).stage_seconds
    assert "reward_determination" in stages


def test_parallel_fast_path_matches_sequential(rng):
    instance = make_random_multi_task(rng, n_users=20, n_tasks=4)
    mechanism = MultiTaskMechanism()
    assert mechanism.run(instance, max_workers=2) == mechanism.run(instance)
