"""The multi-task, single-minded mechanism (paper, §III-C: Algorithms 4 + 5).

A sealed-bid reverse auction for a set of tasks where each user is
*single-minded*: she performs her whole bundle ``S_i`` or nothing.

1. **Winner determination** — greedy submodular set cover
   (:func:`repro.core.greedy.greedy_allocation`, Algorithm 4): repeatedly
   select the user maximising capped-contribution / cost.  ``H(γ)``-
   approximate (Theorem 5) in ``O(n²t)`` time (Theorem 6).
2. **Reward determination** — per winner, Algorithm 5 reruns the greedy
   without her and prices an execution-contingent contract at the minimum
   contribution that would have out-ranked some iteration's winner.

Theorem 4: the pairing is strategy-proof in the contribution dimension
(which subsumes cheating on the task set).  "Success" for the EC contract
means completing *any* task of the bundle; a winner's expected utility is
``(e^{−q̄_i} − e^{−Σ_j q_i^j})·α`` (Equation 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import ValidationError
from .greedy import GreedyTrace, greedy_allocation
from .obshooks import emit as _emit
from .obshooks import span as _span
from .rewards import ECReward, ec_reward
from .transforms import achieved_pos
from .types import AuctionInstance

__all__ = ["MultiTaskOutcome", "MultiTaskMechanism"]


@dataclass(frozen=True)
class MultiTaskOutcome:
    """Result of the multi-task auction.

    Attributes:
        winners: Selected user ids (frozen set; selection order is in
            ``trace.selected``).
        rewards: Per-winner execution-contingent contracts.
        social_cost: Total winner cost.
        achieved_pos: Per-task analytic completion probability under the
            declared profile, ``1 − Π_{i∈winners, j∈S_i}(1 − p_i^j)``.
        trace: The greedy run's full iteration record.
        perf: :class:`repro.perf.instrumentation.PerfCounters` for this run
            (iteration and reuse counters); excluded from equality so an
            outcome compares equal to its oracle's.
    """

    winners: frozenset[int]
    rewards: dict[int, ECReward]
    social_cost: float
    achieved_pos: dict[int, float]
    trace: GreedyTrace = field(repr=False)
    perf: Any = field(default=None, repr=False, compare=False)

    def reward_of(self, user_id: int) -> ECReward:
        return self.rewards[user_id]

    def average_achieved_pos(self) -> float:
        """Mean achieved PoS over tasks (the quantity Figure 7 plots)."""
        return sum(self.achieved_pos.values()) / len(self.achieved_pos)


class MultiTaskMechanism:
    """Strategy-proof multi-task, single-minded reverse auction (Algs 4 + 5).

    When rewards are computed, :class:`repro.perf.batch_pricer.BatchPricer`
    runs winner determination and prices every winner by shared-prefix
    counterfactual replay; its trace equals
    :func:`repro.core.greedy.greedy_allocation`'s (which runs when rewards
    are skipped) and its critical bids equal the per-winner reruns of
    :func:`repro.core.critical.critical_contribution_multi`, bit for bit.

    Args:
        alpha: Reward scaling factor ``α`` (paper default 10).
        critical_method: How winners' critical bids are priced:
            ``"threshold"`` (default) is the corrected exact threshold that
            restores strategy-proofness; ``"paper"`` is the literal
            Algorithm 5 iteration-minimum, which can underprice critical
            bids when contribution capping binds (see
            :mod:`repro.core.critical`).

    Example:
        >>> from repro.core.types import AuctionInstance, Task, UserType
        >>> inst = AuctionInstance(
        ...     tasks=[Task(0, 0.6), Task(1, 0.6)],
        ...     users=[
        ...         UserType(1, cost=2.0, pos={0: 0.5, 1: 0.5}),
        ...         UserType(2, cost=1.5, pos={0: 0.6}),
        ...         UserType(3, cost=1.5, pos={1: 0.6}),
        ...     ],
        ... )
        >>> outcome = MultiTaskMechanism().run(inst)
        >>> outcome.social_cost > 0
        True
    """

    def __init__(self, alpha: float = 10.0, critical_method: str = "threshold"):
        if alpha <= 0:
            raise ValidationError(f"alpha must be positive, got {alpha!r}")
        if critical_method not in ("threshold", "paper"):
            raise ValidationError(f"unknown critical_method {critical_method!r}")
        self.alpha = alpha
        self.critical_method = critical_method

    def determine_winners(self, instance: AuctionInstance) -> GreedyTrace:
        """Run only the winner-determination stage (Algorithm 4)."""
        return greedy_allocation(instance)

    def run(
        self,
        instance: AuctionInstance,
        compute_rewards: bool = True,
        max_workers: int | str | None = None,
        tracer=None,
    ) -> MultiTaskOutcome:
        """Run the full auction: allocation plus (optionally) reward contracts.

        ``compute_rewards=False`` skips the per-winner counterfactual greedy
        reruns (Algorithm 5); social-cost experiments use it.
        ``max_workers`` sets the pricing fan-out across winners (an
        integer, ``"auto"``, or ``None`` to defer to
        :func:`repro.core.kernels.resolve_price_workers`).  Prices are
        bit-identical at any worker count.  ``tracer`` (duck-typed
        :class:`repro.obs.tracing.Tracer`, default off) records the span
        hierarchy and the auction audit trail: per-iteration selection
        decisions, per-counterfactual replays, and the final EC contracts.
        """
        # Imported lazily: repro.perf depends on repro.core, not vice versa.
        from repro.perf.instrumentation import PerfCounters

        counters = PerfCounters()
        rewards: dict[int, ECReward] = {}
        with _span(
            tracer,
            "mechanism.run",
            mechanism="multi_task",
            n_users=instance.n_users,
            n_tasks=len(instance.tasks),
            critical_method=self.critical_method,
        ):
            if compute_rewards:
                from repro.perf.batch_pricer import BatchPricer

                with _span(tracer, "winner_determination", algorithm="greedy"):
                    pricer = BatchPricer(
                        instance,
                        method=self.critical_method,
                        counters=counters,
                        tracer=tracer,
                    )
                trace = pricer.trace
                with _span(
                    tracer, "reward_determination", n_winners=len(trace.selected)
                ):
                    for uid, q_bar in pricer.price_all(max_workers=max_workers).items():
                        cost = instance.user_by_id(uid).cost
                        rewards[uid] = ec_reward(uid, q_bar, cost, self.alpha)
            else:
                with _span(tracer, "winner_determination", algorithm="greedy"):
                    trace = greedy_allocation(
                        instance, counters=counters, tracer=tracer
                    )
            for reward in rewards.values():
                _emit(
                    tracer,
                    "audit.reward",
                    user_id=reward.user_id,
                    mechanism="multi_task",
                    critical_contribution=reward.critical_contribution,
                    critical_pos=reward.critical_pos,
                    cost=reward.cost,
                    success_reward=reward.success_reward,
                    failure_reward=reward.failure_reward,
                )
            _emit(tracer, "mechanism.perf", **counters.to_dict())

        winners = trace.selected_set
        # One pass over the winners' bundles instead of scanning every user
        # for every task (O(winner bundles) vs O(n·t)).
        contribs_by_task: dict[int, list[float]] = {
            t.task_id: [] for t in instance.tasks
        }
        for u in instance.users:
            if u.user_id in winners:
                for task_id in u.task_set:
                    if task_id in contribs_by_task:
                        contribs_by_task[task_id].append(u.contribution(task_id))
        per_task = {
            task_id: achieved_pos(contribs)
            for task_id, contribs in contribs_by_task.items()
        }
        return MultiTaskOutcome(
            winners=winners,
            rewards=rewards,
            social_cost=trace.total_cost(instance),
            achieved_pos=per_task,
            trace=trace,
            perf=counters,
        )
