"""Critical-bid computation (paper, Algorithm 3 line 1 and Algorithm 5).

A winner's **critical bid** is the minimum contribution she could have
declared and still won.  The EC reward contract is priced at the critical
bid, which is what makes truthful PoS reporting a dominant strategy.

Single task
-----------
Lemma 1 shows the FPTAS winner determination is monotone in a user's
contribution, so the win/lose boundary is a single threshold and
:func:`critical_contribution_single` finds it by binary search over
``[0, max(Q, declared q_i)]``, re-running the allocation on counterfactual
instances.  The search runs to an absolute tolerance and returns the upper
end of the final bracket (a value at which the user provably wins).

Multi task
----------
Algorithm 5 reruns the greedy allocation *without* user ``i`` and, in every
iteration where user ``k`` was selected at residual requirements ``Q̄``,
records the contribution user ``i`` would have needed to beat ``k``'s
contribution-cost ratio:

``(c_i / c_k) · Σ_j min{Q̄_j, q_k^j}``

The critical bid is the minimum over iterations.  When the instance without
user ``i`` is infeasible (``i`` is pivotal) the counterfactual run still
yields candidates from the iterations that do occur; if there are none at
all, the critical contribution is 0 — the user wins with any positive
report.

A flaw in the paper's Algorithm 5 (and the corrected default)
--------------------------------------------------------------
The iteration-minimum formula implicitly assumes user ``i``'s marginal gain
equals her raw total contribution.  In a late iteration the residual
requirements ``Q̄`` on her tasks may be (nearly) depleted, so her *capped*
gain ``Σ_j min{q_i^j, Q̄_j}`` is far below any raw contribution she could
declare — yet the formula still emits the small candidate
``(c_i/c_k)·gain_k`` from that iteration.  The resulting critical bid can
fall below a *losing* user's true total contribution, and such a user then
profits by inflating her declared PoS: she wins in an early iteration while
being priced against the spuriously low late-iteration candidate.  This
violates incentive compatibility (a concrete counterexample, found by
hypothesis, is pinned in ``tests/core/test_critical_flaw.py``); the gap in
the paper's Theorem 4 proof is the claim that a truthful loser must have
``Σ_j q_i^j < q̄_i``, which only holds when capping never binds.

``method="threshold"`` (the default) computes the exact critical bid
instead: the minimal *scaling* of the user's declared contribution profile
at which she would first out-rank some iteration's winner, accounting for
capping — a per-iteration piecewise-linear solve over the same
counterfactual trace, so the asymptotic cost is unchanged.  Because winning
is monotone in the scale (Lemma 2), pricing at this threshold restores
incentive compatibility along scaling deviations (which, per the paper's
own reduction, subsume bundle misreports).  ``method="paper"`` keeps the
literal Algorithm 5 for fidelity and for the ablation benchmark.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import CriticalBidError, InfeasibleInstanceError, ValidationError
from .fptas import fptas_min_knapsack
from .greedy import GreedyIteration, greedy_allocation
from .obshooks import emit as _emit
from .obshooks import span as _span
from .types import AuctionInstance, SingleTaskInstance, UserType

__all__ = [
    "critical_contribution_single",
    "critical_contribution_multi",
    "price_from_iterations",
    "DEFAULT_TOLERANCE",
]

#: Absolute tolerance of the single-task binary search (in contribution units).
DEFAULT_TOLERANCE = 1e-9

WinPredicate = Callable[[SingleTaskInstance], frozenset[int]]


def _check_tolerance(tolerance: float) -> None:
    """Reject a bisection tolerance that is not positive and finite.

    At zero or below, ``high - low > tolerance`` never ends the search (only
    the adjacent-float rule of :func:`_bisect_boundary` would); a NaN ends
    it before the first probe, returning the bracket top as the price.
    """
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ValidationError(
            f"tolerance must be positive and finite, got {tolerance!r}"
        )


def _bisect_boundary(wins: Callable[[float], bool], high: float, tolerance: float) -> float:
    """Algorithm 3's bisection of ``[0, high]`` for the win/lose boundary.

    ``wins(0.0)`` must be false and ``wins(high)`` true.  Returns the upper
    end of the final bracket (a value at which the user provably wins).
    The search also ends when the midpoint equals an end of the bracket:
    the two ends are then adjacent floats and the bracket cannot shrink.
    The reference search and the memoized pricer both bisect through this
    function, so their probes stay identical.
    """
    low = 0.0
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            break
        if wins(mid):
            high = mid
        else:
            low = mid
    return high


def critical_contribution_single(
    instance: SingleTaskInstance,
    user_id: int,
    epsilon: float,
    tolerance: float = DEFAULT_TOLERANCE,
    allocator: WinPredicate | None = None,
    tracer=None,
) -> float:
    """Binary-search the critical contribution of a single-task winner.

    Args:
        instance: The declared instance (in which ``user_id`` must win).
        user_id: The winner whose critical bid is sought.
        epsilon: FPTAS approximation parameter (the counterfactual
            allocations must use the same ``ε`` as the real one).
        tolerance: Absolute stopping tolerance of the search (positive and
            finite).
        allocator: Override for the winner-determination function (maps an
            instance to the winning id set); defaults to the FPTAS.  Used by
            tests to price against the exact optimum.
        tracer: Optional duck-typed :class:`repro.obs.tracing.Tracer`; when
            set, every bisection probe is recorded as a ``critical.probe``
            audit event.

    Returns:
        The minimum contribution ``q̄_i`` (within ``tolerance``) at which the
        user still wins.

    Raises:
        CriticalBidError: If the user does not win at her declared
            contribution (no critical bid exists below it).
        ValidationError: If ``tolerance`` is not positive and finite.
    """
    _check_tolerance(tolerance)

    def wins(contribution: float) -> bool:
        modified = instance.with_contribution(user_id, contribution)
        try:
            if allocator is not None:
                won = user_id in allocator(modified)
            else:
                won = user_id in fptas_min_knapsack(modified, epsilon).selected
        except InfeasibleInstanceError:
            # Lowering a pivotal user's contribution below the point where
            # the task is coverable at all: the auction cannot clear, so she
            # certainly does not win at this declaration.
            won = False
        _emit(tracer, "critical.probe", user_id=user_id, value=contribution, won=won)
        return won

    declared = instance.contributions[instance.index_of(user_id)]
    if not wins(declared):
        raise CriticalBidError(
            f"user {user_id} does not win at the declared contribution {declared:.6g}"
        )
    if wins(0.0):
        # The user wins even contributing nothing; the boundary is at zero.
        return 0.0

    # By monotonicity (Lemma 1), wins(high) holds because high >= declared.
    return _bisect_boundary(wins, max(instance.requirement, declared), tolerance)


def critical_contribution_multi(
    instance: AuctionInstance,
    user_id: int,
    method: str = "threshold",
    tracer=None,
) -> float:
    """Critical total contribution for a multi-task winner.

    Reruns the greedy allocation without ``user_id`` over its counterfactual
    iterations and prices the minimum winning declaration.  ``method``:

    * ``"threshold"`` (default) — exact minimal winning declaration along
      the scaling ray, accounting for contribution capping (see module
      docstring).  Restores the strategy-proofness Theorem 4 claims.
    * ``"paper"`` — the literal Algorithm 5 iteration-minimum
      ``min_t (c_i/c_{k_t})·gain_{k_t}``, kept for fidelity.

    ``tracer`` (duck-typed, default off) wraps the rerun in a
    ``counterfactual`` span and records an ``audit.counterfactual`` event
    (the reference path replays the full trace, so ``prefix_reused`` is 0).

    This per-winner rerun is the pricing oracle of
    :class:`repro.perf.batch_pricer.BatchPricer`, through which the
    multi-task mechanism prices.
    """
    if method not in ("threshold", "paper"):
        raise ValidationError(f"unknown critical-bid method {method!r}")
    user = instance.user_by_id(user_id)
    counterfactual = instance.without_user(user_id)
    with _span(tracer, "counterfactual", user_id=user_id):
        trace = greedy_allocation(counterfactual, require_feasible=False)
        price = price_from_iterations(user, trace.iterations, trace.satisfied, method)
    _emit(
        tracer,
        "audit.counterfactual",
        user_id=user_id,
        prefix_reused=0,
        suffix_iterations=len(trace.iterations),
        satisfied=trace.satisfied,
        critical=price,
    )
    return price


def price_from_iterations(
    user: UserType,
    iterations: tuple[GreedyIteration, ...],
    satisfied: bool,
    method: str = "threshold",
) -> float:
    """Price a user against an already-computed counterfactual greedy trace.

    This is the arithmetic core of :func:`critical_contribution_multi`,
    factored out so the batch pricing engine
    (:class:`repro.perf.batch_pricer.BatchPricer`) — which obtains the
    counterfactual iterations by shared-prefix replay instead of a full
    rerun — produces bit-identical critical bids.

    Args:
        user: The (declared) type of the user being priced.
        iterations: The counterfactual run's iterations (without ``user``).
        satisfied: Whether that run met every requirement (``user`` is
            pivotal when it did not).
        method: ``"threshold"`` or ``"paper"`` (see
            :func:`critical_contribution_multi`); anything else raises
            :class:`ValidationError`.
    """
    if method not in ("threshold", "paper"):
        raise ValidationError(f"unknown critical-bid method {method!r}")
    if method == "paper":
        best = math.inf
        for iteration in iterations:
            # To be chosen in place of user k, user i needs ratio >= k's:
            # gain_i / c_i >= gain_k / c_k  =>  gain_i >= (c_i/c_k)·gain_k.
            candidate = (user.cost / iteration.cost) * iteration.gain
            best = min(best, candidate)
        if math.isinf(best):
            # No competing iteration at all: user i is the only one who can
            # contribute, so any positive declaration wins.
            return 0.0
        return best

    # Threshold method.  If the counterfactual run could not satisfy the
    # requirements, user i is pivotal: with her present the greedy must
    # eventually select her at any positive declaration.
    if not satisfied:
        return 0.0
    declared_total = user.total_contribution()
    if declared_total <= 0.0:
        return 0.0
    # Her declared profile's per-task shares: q_i^j = share_j * total.
    shares = {j: user.contribution(j) / declared_total for j in user.task_set}

    # Scan candidates in ascending required-gain order: a candidate's scale
    # is at least required_gain / declared_total (capping can only *raise*
    # it), so once that lower bound clears the incumbent minimum — with a
    # 1e-9 relative margin absorbing float rounding — no later candidate can
    # improve the minimum and the scan stops.  The returned value is
    # unchanged; only provably non-improving solves are skipped.
    candidates = sorted(
        ((user.cost * iteration.ratio, iteration) for iteration in iterations),
        key=lambda pair: pair[0],
    )
    best_scale = math.inf
    for required_gain, iteration in candidates:
        if required_gain > best_scale * declared_total * (1.0 + 1e-9):
            break
        # Tie-breaking: on equal ratios the greedy keeps the lowest user id,
        # so out-ranking an iteration winner with a *smaller* id requires
        # strictly exceeding her ratio — merely matching it loses the tie.
        # When capping saturates the user's gain exactly at the required
        # gain, strict exceedance is unreachable at any scale and the
        # iteration yields no candidate.
        scale = _min_scale_for_gain(
            shares,
            declared_total,
            iteration.residual_before,
            required_gain,
            strict=user.user_id > iteration.user_id,
        )
        if scale is not None:
            best_scale = min(best_scale, scale)
    if math.isinf(best_scale):
        # She can never out-rank anyone, yet she won — only possible when
        # there were no iterations at all (empty requirements).
        return 0.0
    return best_scale * declared_total


def _min_scale_for_gain(
    shares: dict[int, float],
    declared_total: float,
    residual: dict[int, float],
    required_gain: float,
    strict: bool = False,
) -> float | None:
    """Minimal ``s`` with ``Σ_j min(s·share_j·total, R_j) >= required_gain``.

    The left side is a concave piecewise-linear increasing function of ``s``
    with kinks where each task's residual cap starts binding; we walk the
    kinks in order.  Returns ``None`` when even ``s → ∞`` (every task capped
    at its residual) falls short.

    With ``strict=True`` the gain must *strictly exceed* ``required_gain``
    (the caller loses ratio ties).  On a rising segment the minimal scale is
    the same point — any larger ``s`` strictly exceeds — but when the
    required gain is only reached at the fully-capped plateau, no scale
    achieves strict exceedance and the solve returns ``None``.
    """
    if required_gain <= 1e-15:
        return 0.0
    rates = []  # (kink position, linear rate q_j) per task with q_j > 0
    capped_total = 0.0
    for j, share in shares.items():
        q_j = share * declared_total
        r_j = residual.get(j, 0.0)
        if q_j <= 0.0 or r_j <= 0.0:
            continue
        rates.append((r_j / q_j, q_j, r_j))
        capped_total += r_j
    if strict:
        if capped_total <= required_gain + 1e-12:
            return None
    elif capped_total < required_gain - 1e-12:
        return None
    rates.sort()  # by kink position
    # Walk segments between consecutive kinks; slope = sum of q_j of tasks
    # whose cap has not yet bound.
    s_prev = 0.0
    gain_prev = 0.0
    slope = 0.0
    for item in rates:
        slope += item[1]
    idx = 0
    while idx <= len(rates):
        s_next = rates[idx][0] if idx < len(rates) else math.inf
        if slope > 0:
            s_hit = s_prev + (required_gain - gain_prev) / slope
            if s_hit <= s_next + 1e-15:
                return max(0.0, s_hit)
        gain_prev += slope * (s_next - s_prev) if math.isfinite(s_next) else 0.0
        if idx < len(rates):
            slope -= rates[idx][1]
            s_prev = s_next
        idx += 1
    return None  # unreachable given the capped_total check, kept for safety
