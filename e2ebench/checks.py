"""Correctness checks for the benchmark's operations.

Every check is worked out here, apart from the program: totals are
recomputed from the instance and the winner set, and the paper's
guarantees are tested as properties (approximation ratios against the
MILP optimum, individual rationality, PoS attainment).  None of them compares against a stored copy of the
program's output.  Each function returns a list of problems; an empty
list means the operation is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from repro.core.types import AuctionInstance

#: HiGHS's default relative MIP gap: the MILP "optimum" may exceed the true
#: optimum by this share, so bounds against it are widened by it.
MILP_GAP = 1e-4
#: Float slack for quantities the program accumulates in another order.
REL_TOL = 1e-9
#: Width, in standard deviations, of the bound on successful attempts.
ATTEMPT_SIGMAS = 6.0


def _contribution(p: float) -> float:
    return -math.log1p(-p)


# --------------------------------------------------------------------- #
# Paper experiments: read back from the CSV each run writes
# --------------------------------------------------------------------- #


def read_csv(path: Path) -> tuple[list[dict], dict]:
    """Rows (as dicts of floats where numeric) and ``# key = value`` extras."""
    rows: list[dict] = []
    extras: dict = {}
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    for line in lines:
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            extras[key] = _number(value)
    for record in csv.DictReader(body):
        rows.append({key: _number(value) for key, value in record.items()})
    return rows, extras


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _le(a: float, b: float, slack: float = REL_TOL) -> bool:
    """``a <= b`` up to a relative slack."""
    return a <= b + slack * max(1.0, abs(b))


def check_fig3(rows, extras, params) -> list[str]:
    problems = []
    accuracy = [row["accuracy"] for row in rows]
    if any(not 0.0 <= a <= 1.0 for a in accuracy):
        problems.append(f"accuracy outside [0, 1]: {accuracy}")
    if any(b < a for a, b in zip(accuracy, accuracy[1:])):
        problems.append(f"accuracy decreases in m: {accuracy}")
    return problems


def check_fig4(rows, extras, params) -> list[str]:
    width = 1.0 / len(rows)
    mass = math.fsum(row["density"] * width for row in rows)
    if abs(mass - 1.0) > 1e-9:
        return [f"PoS density integrates to {mass!r}, not 1"]
    return []


def check_fig5a(rows, extras, params) -> list[str]:
    eps = params["epsilon"]
    problems = []
    for row in rows:
        opt, fptas, min_greedy = row["opt"], row["fptas"], row["min_greedy"]
        if not (_le(opt * (1 - MILP_GAP), fptas) and _le(fptas, (1 + eps) * opt)):
            problems.append(f"n={row['n_users']:g}: FPTAS {fptas} outside [OPT, (1+eps)OPT], OPT={opt}")
        if not (_le(opt * (1 - MILP_GAP), min_greedy) and _le(min_greedy, 2 * opt)):
            problems.append(f"n={row['n_users']:g}: Min-Greedy {min_greedy} outside [OPT, 2 OPT], OPT={opt}")
    return problems


def check_greedy_vs_opt(rows, extras, params) -> list[str]:
    return [
        f"greedy {row['greedy']} below OPT {row['opt']}"
        for row in rows
        if not _le(row["opt"] * (1 - MILP_GAP), row["greedy"])
    ]


def check_fig6(rows, extras, params) -> list[str]:
    problems = []
    for setting in ("single", "multi"):
        series = [row for row in rows if row["setting"] == setting]
        if not series:
            problems.append(f"no {setting} utilities")
            continue
        utilities = [row["utility"] for row in series]
        cdf = [row["cdf"] for row in series]
        if min(utilities) < -REL_TOL:
            problems.append(f"{setting}: negative expected utility {min(utilities)} (IR)")
        if any(b < a for a, b in zip(cdf, cdf[1:])) or abs(cdf[-1] - 1.0) > 1e-12:
            problems.append(f"{setting}: CDF not nondecreasing to 1")
    return problems


def check_fig7(rows, extras, params) -> list[str]:
    return [
        f"{row['setting']} achieves {row['achieved']} < required {row['required']}"
        for row in rows
        if row["setting"].endswith("/ours") and not _le(row["required"], row["achieved"])
    ]


def check_sweep_single(rows, extras, params) -> list[str]:
    required = params["requirement"]
    return [
        f"n={row['n_users']:g}: achieved PoS {row['achieved_pos']} < {required}"
        for row in rows
        if not _le(required, row["achieved_pos"])
    ]


def check_ablation_epsilon(rows, extras, params) -> list[str]:
    problems = []
    for row in rows:
        eps = row["epsilon"]
        if not _le(1 - MILP_GAP, row["mean_ratio"]):
            problems.append(f"eps={eps}: mean ratio {row['mean_ratio']} below 1")
        if not _le(row["max_ratio"], 1 + eps):
            problems.append(f"eps={eps}: max ratio {row['max_ratio']} above 1+eps")
    return problems


def check_ablation_delta_q(rows, extras, params) -> list[str]:
    problems = []
    for row in rows:
        ratio, bound = row["actual_ratio"], row["mean_H_gamma_bound"]
        if not (_le(1 - MILP_GAP, ratio) and _le(ratio, bound)):
            problems.append(f"dq={row['delta_q']}: ratio {ratio} outside [1, H(gamma)={bound}]")
    return problems


def check_finite(rows, extras, params) -> list[str]:
    bad = [
        row
        for row in rows
        for value in row.values()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    return [f"non-finite values in {len(bad)} row(s)"] if bad else []


PAPER_CHECKS = {
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig5a": check_fig5a,
    "fig5b": check_greedy_vs_opt,
    "fig5c": check_greedy_vs_opt,
    "fig6": check_fig6,
    "fig7": check_fig7,
    "sweep-single": check_sweep_single,
    "ablation-epsilon": check_ablation_epsilon,
    "ablation-delta-q": check_ablation_delta_q,
}


def check_experiment(name: str, csv_path: Path, params: dict) -> list[str]:
    """Check one experiment's CSV: rows exist, values are finite, and the
    experiment's own property holds (where the paper states one)."""
    rows, extras = read_csv(csv_path)
    if not rows:
        return [f"{csv_path.name} has no rows"]
    problems = check_finite(rows, extras, params)
    check = PAPER_CHECKS.get(name)
    if check is not None:
        problems += check(rows, extras, params)
    return problems


# --------------------------------------------------------------------- #
# Multi-task auctions (fleet)
# --------------------------------------------------------------------- #


def check_allocation(instance: AuctionInstance, outcome, users_by_id: dict) -> list[str]:
    """Every task's requirement is met by the winners' recomputed Σq, and the
    social cost is the winners' summed cost."""
    problems = []
    covered = {task.task_id: [] for task in instance.tasks}
    for uid in outcome.winners:
        for task_id, p in users_by_id[uid].pos.items():
            covered[task_id].append(_contribution(p))
    short = [
        task.task_id
        for task in instance.tasks
        if not _le(task.contribution_requirement, math.fsum(covered[task.task_id]))
    ]
    if short:
        problems.append(f"{len(short)} task(s) below requirement, e.g. task {short[0]}")
    cost = math.fsum(users_by_id[uid].cost for uid in outcome.winners)
    if abs(cost - outcome.social_cost) > REL_TOL * max(1.0, cost):
        problems.append(f"social cost {outcome.social_cost} != winners' cost {cost}")
    return problems


def check_settlement(instance: AuctionInstance, outcome, execution, users_by_id: dict) -> list[str]:
    """The settlement agrees with its own attempts, and the attempts with
    their odds.

    Exact: the attempts are one per (winner, bundle task); a task is
    completed exactly when some winner's attempt on it succeeded; spend
    equals the contract payments recomputed from the attempts (none when
    the auction was cleared without rewards).  Statistical:
    the number of successful attempts lies within a binomial bound of
    Σp over the attempts.
    """
    expected = {(uid, t) for uid in outcome.winners for t in users_by_id[uid].pos}
    if set(execution.attempts) != expected:
        missing, extra = expected - set(execution.attempts), set(execution.attempts) - expected
        return [f"attempts are not one per (winner, bundle task): {len(missing)} missing, {len(extra)} extra"]
    problems = []

    done = {task.task_id: False for task in instance.tasks}
    success = {uid: False for uid in outcome.winners}
    for (uid, task_id), ok in execution.attempts.items():
        done[task_id] = done[task_id] or ok
        success[uid] = success[uid] or ok
    wrong = [t for t in done if execution.task_completed.get(t) != done[t]]
    if wrong or set(execution.task_completed) != set(done):
        problems.append(
            f"task_completed disagrees with the attempts on {len(wrong)} task(s)"
            f"{f', e.g. task {wrong[0]}' if wrong else ''}"
        )

    spend = math.fsum(
        reward.realized(success[uid]) for uid, reward in outcome.rewards.items()
    )
    if abs(spend - execution.platform_spend) > REL_TOL * max(1.0, abs(spend)):
        problems.append(f"spend {execution.platform_spend} != recomputed payments {spend}")

    p = np.array([users_by_id[uid].pos[t] for uid, t in execution.attempts])
    mean = float(p.sum())
    sigma = math.sqrt(float((p * (1.0 - p)).sum()))
    succeeded = sum(execution.attempts.values())
    if abs(succeeded - mean) > ATTEMPT_SIGMAS * sigma + 1.0:
        problems.append(
            f"{succeeded} attempts succeeded, expected {mean:.1f} +/- {ATTEMPT_SIGMAS:g} x {sigma:.2f}"
        )
    return problems
