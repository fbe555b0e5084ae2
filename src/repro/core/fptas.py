"""FPTAS winner determination for the single-task setting (Algorithm 2).

The single-task problem is a **minimum knapsack**: pick the cheapest user set
whose total contribution reaches the requirement ``Q``.  The paper's FPTAS
splits it into ``n`` subproblems — subproblem ``k`` restricts attention to
the ``k`` cheapest users and scales costs by ``μ_k = ε·c_k / k`` — solves
each by dynamic programming over the integer scaled costs, and returns the
best solution across subproblems.  Theorem 2 shows the result costs at most
``(1+ε)`` times the optimum; Theorem 3 bounds the running time by
``O(n^4/ε)``.

Two implementation layers:

* :func:`_min_knapsack_scaled` — a vectorised (numpy) exact DP over integer
  costs with per-item decision layers for O(n·C_max) time and memory.  This
  is the only DP Algorithm 2 runs on; the list-based Pareto DP in
  :mod:`repro.core.knapsack` is the paper-literal Algorithm 1 and its
  oracle in tests.
* :func:`fptas_min_knapsack` — the full Algorithm 2 driver.

Determinism: users are sorted by (cost, user id), the DP prefers *not*
taking an item on exact ties, and subproblems are compared with the paper's
``<=`` rule (later subproblems win ties).  The same instance therefore always
produces the same winner set, which the critical-bid search relies on.

A note on the subproblem-comparison rule: Algorithm 2's pseudocode compares
subproblems by the *scaled* objective ``C̄·μ_k`` (line 9), but that value is
not a faithful proxy for real cost — with a large ``μ_k``, cheap users round
to scaled cost 0 and an expensive set can win with scaled value 0, breaking
the (1+ε) guarantee (a hypothesis-found counterexample lives in
``tests/core/test_fptas.py``).  The paper's own Theorem 2 proof concludes via
"our algorithm selects the solution with the minimum costs over all the
subproblems", i.e. comparison by **actual** cost, which is what we implement;
the scaled value is kept as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInstanceError, ValidationError
from .types import SingleTaskInstance

__all__ = ["FptasResult", "fptas_min_knapsack", "DEFAULT_EPSILON", "MAX_DP_CELLS"]

#: The paper's evaluation uses ε = 0.5 and reports near-optimal behaviour.
DEFAULT_EPSILON = 0.5

#: Upper bound on the DP decision matrix size ``n·(c_max+1)``.  ``c_max =
#: Σ⌊c_j/μ_k⌋`` grows as ``1/ε``, so a tiny ε can push the ``take`` matrix
#: into the gigabytes; past this bound the solver refuses with a
#: :class:`ValidationError` instead of dying on an opaque ``MemoryError``.
MAX_DP_CELLS = 150_000_000

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class FptasResult:
    """Outcome of the FPTAS winner determination.

    Attributes:
        selected: Winning user ids.
        total_cost: Real (unscaled) total cost of the winners.
        contribution: Total contribution of the winners.
        epsilon: Approximation parameter used.
        winning_subproblem: Index ``k`` (1-based) of the subproblem whose
            solution was returned — diagnostic only.
        scaled_objective: The ``C̄·μ_k`` value Algorithm 2 used to compare
            subproblems (the quantity its (1+ε) guarantee is stated for).
    """

    selected: frozenset[int]
    total_cost: float
    contribution: float
    epsilon: float
    winning_subproblem: int
    scaled_objective: float


def _check_dp_cells(n: int, c_max: int) -> None:
    """Refuse DP tables whose decision matrix would exceed :data:`MAX_DP_CELLS`."""
    cells = n * (c_max + 1)
    if cells > MAX_DP_CELLS:
        raise ValidationError(
            f"FPTAS dynamic program needs {cells} decision cells "
            f"(n={n}, c_max={c_max}), exceeding MAX_DP_CELLS={MAX_DP_CELLS}; "
            f"increase epsilon or shrink the cost spread"
        )


def _dp_rows(
    best: np.ndarray,
    take: np.ndarray,
    int_costs: np.ndarray,
    contributions: np.ndarray,
    start: int,
    stop: int,
    cand: np.ndarray | None = None,
    counters=None,
) -> None:
    """Apply DP item layers ``[start, stop)`` to ``best`` / ``take`` in place.

    ``best[c]`` holds the maximum contribution achievable at integer cost
    exactly ``c`` over the items processed so far; ``take[j]`` records layer
    ``j``'s decision bits for the backward reconstruction walk.  Exposing the
    row loop lets :class:`repro.perf.single_pricer.SingleTaskPricer` resume
    from a snapshot taken after a shared prefix of layers, so the fast path
    runs the *same* float operations as :func:`_min_knapsack_scaled`.
    """
    n_cells = best.size
    if cand is None:
        cand = np.empty_like(best)
    for j in range(start, stop):
        c_j = int(int_costs[j])
        q_j = float(contributions[j])
        if c_j == 0:
            np.add(best, q_j, out=cand)
        else:
            cand[:c_j] = -np.inf
            np.add(best[: n_cells - c_j], q_j, out=cand[c_j:])
        # Strict '>' keeps the no-take branch on ties (deterministic).
        np.greater(cand, best, out=take[j, :n_cells])
        np.copyto(best, cand, where=take[j, :n_cells])
        if counters is not None:
            counters.fptas_dp_cells += n_cells


def _reconstruct(take: np.ndarray, int_costs: np.ndarray, target: int) -> list[int]:
    """Backward walk over the decision layers, mirroring Algorithm 1's parents."""
    items: list[int] = []
    c = target
    for j in range(take.shape[0] - 1, -1, -1):
        if take[j, c]:
            items.append(j)
            c -= int(int_costs[j])
    assert c == 0, "reconstruction must end at the empty state"
    return items


def _min_knapsack_scaled(
    int_costs: np.ndarray, contributions: np.ndarray, requirement: float, counters=None
) -> tuple[frozenset[int], int] | None:
    """Exact min-knapsack over non-negative *integer* costs.

    Computes, for every achievable integer total cost ``c``, the maximum
    total contribution ``best[c]``; the answer is the smallest ``c`` with
    ``best[c] >= requirement``.  Returns ``(item indices, scaled cost)`` or
    ``None`` when infeasible.

    Decision bits are stored per item layer so the chosen set can be
    reconstructed by a backward walk, mirroring Algorithm 1's parent
    pointers but in flat arrays.  Raises :class:`ValidationError` when the
    decision matrix would exceed :data:`MAX_DP_CELLS` cells.
    """
    n = len(int_costs)
    c_max = int(int_costs.sum())
    _check_dp_cells(n, c_max)
    best = np.full(c_max + 1, -np.inf)
    best[0] = 0.0
    take = np.zeros((n, c_max + 1), dtype=bool)
    _dp_rows(best, take, int_costs, contributions, 0, n, counters=counters)

    feasible = np.flatnonzero(best >= requirement - _EPS)
    if feasible.size == 0:
        return None
    target = int(feasible[0])
    items = _reconstruct(take, int_costs, target)
    return frozenset(items), target


def fptas_min_knapsack(
    instance: SingleTaskInstance,
    epsilon: float = DEFAULT_EPSILON,
    counters=None,
) -> FptasResult:
    """Algorithm 2: (1+ε)-approximate winner determination, single task.

    Args:
        instance: The single-task auction instance (positive costs,
            non-negative contributions, requirement ``Q >= 0``).
        epsilon: Approximation parameter ``ε > 0``; smaller is more accurate
            and slower (time grows as ``1/ε``).
        counters: Optional :class:`repro.perf.instrumentation.PerfCounters`
            (duck-typed) accumulating ``fptas_subproblems`` and
            ``fptas_dp_cells``.

    Returns:
        The selected users with cost/contribution diagnostics.

    Raises:
        InfeasibleInstanceError: If all users together cannot reach ``Q``.
        ValidationError: If ``epsilon <= 0``, or if the DP would exceed
            :data:`MAX_DP_CELLS` cells (tiny ε on a wide cost spread).
    """
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon!r}")
    if instance.requirement <= _EPS:
        return FptasResult(
            selected=frozenset(),
            total_cost=0.0,
            contribution=0.0,
            epsilon=epsilon,
            winning_subproblem=0,
            scaled_objective=0.0,
        )
    if not instance.is_feasible():
        raise InfeasibleInstanceError(
            f"total contribution {instance.total_contribution():.6g} "
            f"< requirement {instance.requirement:.6g}"
        )

    # Sort users by (cost, user_id); `order[r]` is the original index of the
    # r-th cheapest user.
    order = sorted(
        range(instance.n_users),
        key=lambda i: (instance.costs[i], instance.user_ids[i]),
    )
    costs = np.array([instance.costs[i] for i in order], dtype=float)
    contribs = np.array([instance.contributions[i] for i in order], dtype=float)
    requirement = instance.requirement

    # Subproblem k is only feasible once the k cheapest users jointly cover Q;
    # start at the first such k.
    prefix = np.cumsum(contribs)
    first_k = int(np.searchsorted(prefix, requirement - _EPS) + 1)

    best_cost = math.inf
    best_scaled = math.inf
    best_items: frozenset[int] | None = None
    best_k = 0
    for k in range(first_k, instance.n_users + 1):
        c_k = float(costs[k - 1])
        mu_k = epsilon * c_k / k
        scaled = np.floor(costs[:k] / mu_k).astype(np.int64)
        if counters is not None:
            counters.fptas_subproblems += 1
        solved = _min_knapsack_scaled(
            scaled, contribs[:k], requirement, counters=counters
        )
        if solved is None:
            continue
        items, scaled_cost = solved
        # Compare subproblems by ACTUAL cost (see module docstring); the
        # paper's '<=' tie rule is kept: later subproblems win exact ties.
        real_cost = float(costs[list(items)].sum())
        if real_cost <= best_cost + _EPS:
            best_cost = real_cost
            best_scaled = scaled_cost * mu_k
            best_items = items
            best_k = k

    assert best_items is not None, "at least one subproblem is feasible"
    selected_ids = frozenset(instance.user_ids[order[i]] for i in best_items)
    contribution = sum(instance.contributions[order[i]] for i in best_items)
    return FptasResult(
        selected=selected_ids,
        total_cost=best_cost,
        contribution=contribution,
        epsilon=epsilon,
        winning_subproblem=best_k,
        scaled_objective=best_scaled,
    )
