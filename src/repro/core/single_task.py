"""The single-task mechanism (paper, §III-B: Algorithms 2 + 3).

A sealed-bid reverse auction for one sensing task:

1. **Winner determination** — the FPTAS for minimum knapsack
   (:func:`repro.core.fptas.fptas_min_knapsack`, Algorithm 2), a
   ``(1+ε)``-approximation (Theorem 2) running in ``O(n⁴/ε)`` (Theorem 3).
2. **Reward determination** — per winner, a binary search for her critical
   contribution (Algorithm 3) and an execution-contingent contract priced at
   the corresponding critical PoS ``p̄_i``.

Theorem 1: with this pairing the mechanism is strategy-proof in the PoS
dimension — a winner's expected utility is ``(p_i − p̄_i)·α``, maximised by
truthful reporting.  Costs are assumed verifiable (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .critical import DEFAULT_TOLERANCE, _check_tolerance
from .errors import ValidationError
from .fptas import DEFAULT_EPSILON, FptasResult, fptas_min_knapsack
from .obshooks import emit as _emit
from .obshooks import span as _span
from .rewards import ECReward, ec_reward
from .transforms import achieved_pos
from .types import SingleTaskInstance

__all__ = ["SingleTaskOutcome", "SingleTaskMechanism"]


@dataclass(frozen=True)
class SingleTaskOutcome:
    """Everything the platform learns from running the single-task auction.

    Attributes:
        winners: Selected user ids.
        rewards: Per-winner execution-contingent contracts.
        social_cost: Total cost of the winners (the platform's objective).
        achieved_pos: Analytic probability the task is completed,
            ``1 − Π_{i∈winners}(1 − p_i)`` under the declared PoS profile.
        allocation: Raw FPTAS diagnostics.
        perf: :class:`repro.perf.instrumentation.PerfCounters` for this run
            (DP and cache counters); excluded from equality so an outcome
            compares equal to its oracle's.
    """

    winners: frozenset[int]
    rewards: dict[int, ECReward]
    social_cost: float
    achieved_pos: float
    allocation: FptasResult = field(repr=False)
    perf: Any = field(default=None, repr=False, compare=False)

    def reward_of(self, user_id: int) -> ECReward:
        return self.rewards[user_id]


class SingleTaskMechanism:
    """Strategy-proof single-task reverse auction (Algorithms 2 + 3).

    Args:
        epsilon: FPTAS approximation parameter ``ε`` (paper default 0.5).
        alpha: Reward scaling factor ``α`` (paper default 10); trades off
            winners' utility against platform spend.
        tolerance: Absolute tolerance of the critical-bid binary search
            (positive and finite, else :class:`ValidationError`).

    Winners are priced through
    :class:`repro.perf.single_pricer.SingleTaskPricer` (memoized monotone
    FPTAS probes), whose critical bids equal the per-probe full FPTAS
    reruns of :func:`repro.core.critical.critical_contribution_single`
    bit for bit.

    Example:
        >>> from repro.core.types import SingleTaskInstance
        >>> inst = SingleTaskInstance(
        ...     requirement=1.0,
        ...     user_ids=(1, 2, 3),
        ...     costs=(3.0, 2.0, 4.0),
        ...     contributions=(0.9, 0.8, 0.7),
        ... )
        >>> outcome = SingleTaskMechanism(epsilon=0.1).run(inst)
        >>> sorted(outcome.winners)
        [1, 2]
    """

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        alpha: float = 10.0,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        if alpha <= 0:
            raise ValidationError(f"alpha must be positive, got {alpha!r}")
        _check_tolerance(tolerance)
        self.epsilon = epsilon
        self.alpha = alpha
        self.tolerance = tolerance

    def determine_winners(self, instance: SingleTaskInstance) -> FptasResult:
        """Run only the winner-determination stage (Algorithm 2)."""
        return fptas_min_knapsack(instance, self.epsilon)

    def run(
        self,
        instance: SingleTaskInstance,
        compute_rewards: bool = True,
        tracer=None,
    ) -> SingleTaskOutcome:
        """Run the full auction: allocation plus (optionally) reward contracts.

        ``compute_rewards=False`` skips the per-winner critical-bid searches,
        which dominate the running time; social-cost experiments use it.
        ``tracer`` (duck-typed :class:`repro.obs.tracing.Tracer`, default
        off) records the span hierarchy plus the audit trail: every
        critical-bid bisection probe and the final EC contracts.
        """
        # Imported lazily: repro.perf depends on repro.core, not vice versa.
        from repro.perf.instrumentation import PerfCounters

        counters = PerfCounters()
        rewards: dict[int, ECReward] = {}
        with _span(
            tracer,
            "mechanism.run",
            mechanism="single_task",
            n_users=instance.n_users,
            epsilon=self.epsilon,
        ):
            with _span(tracer, "winner_determination", algorithm="fptas"):
                allocation = fptas_min_knapsack(instance, self.epsilon, counters=counters)
            if compute_rewards:
                from repro.perf.single_pricer import SingleTaskPricer

                with _span(
                    tracer, "reward_determination", n_winners=len(allocation.selected)
                ):
                    pricer = SingleTaskPricer(
                        instance,
                        epsilon=self.epsilon,
                        tolerance=self.tolerance,
                        counters=counters,
                        tracer=tracer,
                    )
                    criticals = pricer.price_all(allocation.selected)
                    for uid, q_bar in criticals.items():
                        cost = instance.costs[instance.index_of(uid)]
                        rewards[uid] = ec_reward(uid, q_bar, cost, self.alpha)
            for reward in rewards.values():
                _emit(
                    tracer,
                    "audit.reward",
                    user_id=reward.user_id,
                    mechanism="single_task",
                    critical_contribution=reward.critical_contribution,
                    critical_pos=reward.critical_pos,
                    cost=reward.cost,
                    success_reward=reward.success_reward,
                    failure_reward=reward.failure_reward,
                )
            _emit(tracer, "mechanism.perf", **counters.to_dict())
        winner_contributions = [
            instance.contributions[instance.index_of(uid)] for uid in allocation.selected
        ]
        return SingleTaskOutcome(
            winners=allocation.selected,
            rewards=rewards,
            social_cost=allocation.total_cost,
            achieved_pos=achieved_pos(winner_contributions),
            allocation=allocation,
            perf=counters,
        )
