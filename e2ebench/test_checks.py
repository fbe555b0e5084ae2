"""The benchmark's checks pass on correct outputs and fail on broken ones.

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from repro.core.multi_task import MultiTaskMechanism  # noqa: E402
from repro.mobility.markov import MarkovMobilityModel  # noqa: E402
from repro.simulation.engine import ExecutionSimulator  # noqa: E402
from repro.workload.generator import WorkloadGenerator  # noqa: E402
from workloads import ring_traces  # noqa: E402


@pytest.fixture(scope="module")
def auction():
    """A small fleet-pipeline auction, priced so that settlement pays."""
    model = MarkovMobilityModel.from_sequences(ring_traces(3000, 60, 24, seed=3))
    generated = WorkloadGenerator(model, seed=3).multi_task_instance(1000, 30, requirement=0.7, seed=3)
    instance = generated.instance
    outcome = MultiTaskMechanism().run(instance)
    execution = ExecutionSimulator(seed=3).simulate_multi(instance, outcome)
    users_by_id = {u.user_id: u for u in instance.users}
    return instance, outcome, execution, users_by_id


def test_auction_checks_pass_on_the_program_output(auction):
    instance, outcome, execution, users_by_id = auction
    assert outcome.rewards and execution.platform_spend > 0
    assert checks.check_allocation(instance, outcome, users_by_id) == []
    assert checks.check_settlement(instance, outcome, execution, users_by_id) == []


def test_settlement_check_passes_without_rewards(auction):
    instance, _, _, users_by_id = auction
    outcome = MultiTaskMechanism().run(instance, compute_rewards=False)
    execution = ExecutionSimulator(seed=3).simulate_multi(instance, outcome)
    assert not outcome.rewards and execution.platform_spend == 0
    assert checks.check_settlement(instance, outcome, execution, users_by_id) == []


def test_allocation_check_fails_with_a_winner_removed(auction):
    instance, outcome, _, users_by_id = auction
    # The greedy's last pick was needed to meet some requirement.
    last = outcome.trace.selected[-1]
    winners = outcome.winners - {last}
    broken = dataclasses.replace(
        outcome,
        winners=winners,
        social_cost=sum(users_by_id[u].cost for u in winners),
    )
    problems = checks.check_allocation(instance, broken, users_by_id)
    assert any("below requirement" in p for p in problems)


def test_allocation_check_fails_on_a_wrong_social_cost(auction):
    instance, outcome, _, users_by_id = auction
    broken = dataclasses.replace(outcome, social_cost=outcome.social_cost * 1.01)
    assert any("social cost" in p for p in checks.check_allocation(instance, broken, users_by_id))


def test_settlement_check_fails_on_a_wrong_spend(auction):
    instance, outcome, execution, users_by_id = auction
    broken = dataclasses.replace(execution, platform_spend=execution.platform_spend + 1.0)
    assert any("spend" in p for p in checks.check_settlement(instance, outcome, broken, users_by_id))


@pytest.mark.parametrize("completed", [False, True])
def test_settlement_check_fails_when_completions_disagree_with_attempts(auction, completed):
    instance, outcome, execution, users_by_id = auction
    assert any(execution.attempts.values()) and not all(execution.task_completed.values())
    broken = dataclasses.replace(
        execution, task_completed={t: completed for t in execution.task_completed}
    )
    problems = checks.check_settlement(instance, outcome, broken, users_by_id)
    assert any("task_completed disagrees" in p for p in problems)


def test_settlement_check_fails_when_an_attempt_is_missing(auction):
    instance, outcome, execution, users_by_id = auction
    attempts = dict(execution.attempts)
    attempts.popitem()
    broken = dataclasses.replace(execution, attempts=attempts)
    problems = checks.check_settlement(instance, outcome, broken, users_by_id)
    assert any("1 missing" in p for p in problems)


def test_settlement_check_fails_when_every_attempt_succeeds(auction):
    # PoS is about one half per attempt, so all of them succeeding is far
    # outside the binomial bound.
    instance, outcome, execution, users_by_id = auction
    attempts = {key: True for key in execution.attempts}
    broken = dataclasses.replace(
        execution,
        attempts=attempts,
        task_completed={t: any(ok for (_, s), ok in attempts.items() if s == t) for t in execution.task_completed},
        platform_spend=sum(r.realized(True) for r in outcome.rewards.values()),
    )
    problems = checks.check_settlement(instance, outcome, broken, users_by_id)
    assert problems and all("attempts succeeded" in p for p in problems)


def _write_csv(path: Path, header: str, rows: list[str], extras: dict | None = None) -> Path:
    lines = [header, *rows] + [f"# {k} = {v}" for k, v in (extras or {}).items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fig5a_check_fails_on_an_fptas_cost_above_the_bound(tmp_path):
    header = "n_users,fptas,opt,min_greedy"
    good = _write_csv(tmp_path / "good.csv", header, ["20,10.4,10.0,12.0"])
    bad = _write_csv(tmp_path / "bad.csv", header, ["20,15.2,10.0,12.0"])
    params = {"epsilon": 0.5}
    assert checks.check_experiment("fig5a", good, params) == []
    assert any("FPTAS" in p for p in checks.check_experiment("fig5a", bad, params))


def test_fig5a_check_fails_on_a_cost_below_the_optimum(tmp_path):
    header = "n_users,fptas,opt,min_greedy"
    bad = _write_csv(tmp_path / "bad.csv", header, ["20,10.0,10.0,9.0"])
    problems = checks.check_experiment("fig5a", bad, {"epsilon": 0.5})
    assert any("Min-Greedy" in p for p in problems)


@pytest.mark.parametrize(
    "name, header, row, params",
    [
        ("fig5b", "n_users,greedy,opt", "20,9.0,10.0", {}),
        ("fig6", "setting,utility,cdf", "single,-1.0,1.0", {}),
        ("fig7", "setting,required,achieved", "multi/ours,0.8,0.7", {}),
        ("sweep-single", "n_users,fptas_cost,n_selected,achieved_pos", "20,5.0,3,0.7", {"requirement": 0.8}),
        ("ablation-epsilon", "epsilon,mean_ratio,max_ratio,mean_seconds", "0.5,1.1,1.6,0.01", {}),
        ("ablation-delta-q", "delta_q,mean_gamma,mean_H_gamma_bound,actual_ratio", "0.1,3,2.0,2.5", {}),
        ("fig3", "m,accuracy", "3,1.2", {}),
        ("fig4", "pos_bin_center,density", "0.5,0.5", {}),
        ("fig8", "requirement,selected_single,selected_multi", "0.5,nan,3", {}),
    ],
)
def test_paper_checks_fail_on_broken_rows(tmp_path, name, header, row, params):
    path = _write_csv(tmp_path / f"{name}.csv", header, [row])
    assert checks.check_experiment(name, path, params)


def test_fig3_check_fails_when_accuracy_decreases(tmp_path):
    path = _write_csv(tmp_path / "fig3.csv", "m,accuracy", ["3,0.6", "5,0.5"])
    assert any("decreases" in p for p in checks.check_experiment("fig3", path, {}))
