"""Auction-instance generation from a learned mobility model (paper, §IV-A).

The paper builds its simulation workload as follows: each taxi gets a random
starting location; the locations it will reach with high probability in the
next time slot become its task set (size uniform in [10, 20]); the predicted
transition probabilities are its PoS values; costs are normal (mean 15,
variance 5); every task carries the same PoS requirement ``T``.

:class:`WorkloadGenerator` reproduces that pipeline on top of a fitted
:class:`~repro.mobility.markov.MarkovMobilityModel`:

* **single-task instances** (Figure 5(a), 7, 8, 9): a popular location is
  fixed as *the* task, and users are taxis likely to reach it;
* **multi-task instances** (Figures 5(b), 5(c), 6, 7, 8, 9): the task pool
  is the ``t`` most popular predicted destinations among the sampled users,
  and each user's bundle is her top predictions inside the pool.

Feasibility repair
------------------
The paper implicitly assumes every generated instance is feasible.  With a
synthetic fleet some tasks can end up short of aggregate contribution,
especially at few users and high ``T``; per DESIGN.md (substitution 4) the
generator then either *boosts* contributions toward the task (scaling every
contributor's ``q`` by a common factor, i.e. ``p' = 1 − (1−p)^λ``) or
*drops* the task, and reports exactly what it did in the returned
:class:`RepairReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ValidationError
from ..core.obshooks import span
from ..core.transforms import contribution_to_pos, pos_to_contribution
from ..core.types import AuctionInstance, SingleTaskInstance, Task, UserType
from ..mobility.markov import MarkovMobilityModel
from ..mobility.markov_kernel import FleetProfiles, fleet_profiles
from .config import SimulationConfig, table2_defaults
from .engine import multi_task_vectorized, single_task_vectorized
from .sampling import sample_costs, sample_task_set_size

__all__ = [
    "RepairReport",
    "GeneratedSingleTask",
    "GeneratedMultiTask",
    "WorkloadGenerator",
]

#: Boosted PoS values are clamped here; beyond it a task is dropped instead.
_MAX_BOOSTED_POS = 0.95


@dataclass(frozen=True)
class RepairReport:
    """What feasibility repair did to a generated instance."""

    boosted_tasks: dict[int, float] = field(default_factory=dict)  # task -> λ
    dropped_tasks: tuple[int, ...] = ()
    resampled_users: int = 0

    @property
    def clean(self) -> bool:
        """True when the instance needed no repair at all."""
        return not self.boosted_tasks and not self.dropped_tasks


@dataclass(frozen=True)
class GeneratedSingleTask:
    """A generated single-task instance plus its provenance."""

    instance: SingleTaskInstance
    task_cell: int
    taxi_of_user: dict[int, int]
    repair: RepairReport


@dataclass(frozen=True)
class GeneratedMultiTask:
    """A generated multi-task instance plus its provenance."""

    instance: AuctionInstance
    task_cells: tuple[int, ...]
    taxi_of_user: dict[int, int]
    repair: RepairReport


class WorkloadGenerator:
    """Builds auction instances from a fitted mobility model.

    Args:
        model: Fitted per-taxi Markov models.
        config: Simulation parameters (defaults to Table II).
        current_cells: Optional snapshot positions (taxi -> cell).  Defaults
            to each taxi's most-visited location.
        seed: Base RNG seed; per-call ``seed`` arguments derive from it.
        tracer: Optional duck-typed tracer; instance builds emit
            ``workload.single_task`` / ``workload.multi_task`` spans.

    Instances are assembled from batched fleet arrays
    (:mod:`repro.workload.engine`).  :meth:`single_task_instance_reference`
    and :meth:`multi_task_instance_reference` keep the original per-taxi
    loops as parity oracles with bit-identical outputs; no run path calls
    them.  The candidate-ranking structures are built lazily per path: the
    first oracle call materialises the per-taxi ``_ranked`` lists, the
    first production call builds one batched
    :class:`~repro.mobility.markov_kernel.FleetProfiles`.
    """

    def __init__(
        self,
        model: MarkovMobilityModel,
        config: SimulationConfig | None = None,
        current_cells: dict[int, int] | None = None,
        seed: int = 0,
        tracer=None,
    ):
        self.model = model
        self.config = config or table2_defaults()
        self.seed = seed
        self.tracer = tracer
        if not model.taxi_ids:
            raise ValidationError("mobility model has no fitted taxis")
        self._given_current = dict(current_cells) if current_cells else None
        self._current_lazy: dict[int, int] | None = None
        self._ranked_lazy: dict[int, list[tuple[int, float]]] | None = None
        self._profiles_lazy: FleetProfiles | None = None

    @property
    def _max_keep(self) -> int:
        return max(self.config.tasks_per_user[1], 20)

    @property
    def _current(self) -> dict[int, int]:
        """Snapshot position per taxi (oracle structure, lazy)."""
        if self._current_lazy is None:
            current: dict[int, int] = {}
            for taxi_id in self.model.taxi_ids:
                if self._given_current is not None and taxi_id in self._given_current:
                    current[taxi_id] = self._given_current[taxi_id]
                else:
                    taxi_model = self.model.model_for(taxi_id)
                    visits = taxi_model.counts.sum(axis=1)
                    current[taxi_id] = taxi_model.locations[int(visits.argmax())]
            self._current_lazy = current
        return self._current_lazy

    @property
    def _ranked(self) -> dict[int, list[tuple[int, float]]]:
        """Ranked candidate destinations per taxi (oracle structure, lazy).

        Each taxi's reach profile over ``pos_horizon`` Markov steps,
        sorted by ``(-PoS, cell)`` and truncated to ``max(max_k, 20)``.
        """
        if self._ranked_lazy is None:
            ranked_map: dict[int, list[tuple[int, float]]] = {}
            for taxi_id in self.model.taxi_ids:
                profile = self.model.reach_profile(
                    taxi_id, self._current[taxi_id], self.config.pos_horizon
                )
                ranked = sorted(profile.items(), key=lambda item: (-item[1], item[0]))
                ranked_map[taxi_id] = ranked[: self._max_keep]
            self._ranked_lazy = ranked_map
        return self._ranked_lazy

    def fleet_profiles(self) -> FleetProfiles:
        """Batched profiles for instance assembly (lazy, cached)."""
        if self._profiles_lazy is None:
            with span(
                self.tracer,
                "workload.profiles",
                n_taxis=len(self.model.taxi_ids),
                horizon=self.config.pos_horizon,
            ):
                self._profiles_lazy = fleet_profiles(
                    self.model.fleet_counts(),
                    self.model.smoothing,
                    self.config.pos_horizon,
                    current_cells=self._given_current,
                    max_keep=self._max_keep,
                )
        return self._profiles_lazy

    def _rng(self, seed: int | None) -> np.random.Generator:
        return np.random.default_rng(self.seed if seed is None else seed)

    def _popular_cells(self, taxi_ids: list[int]) -> list[tuple[int, int]]:
        """(cell, #taxis predicting it) sorted by descending popularity."""
        counts: dict[int, int] = {}
        for taxi_id in taxi_ids:
            for cell, _ in self._ranked[taxi_id]:
                counts[cell] = counts.get(cell, 0) + 1
        return sorted(counts.items(), key=lambda item: (-item[1], item[0]))

    # ------------------------------------------------------------------ #
    # Single task
    # ------------------------------------------------------------------ #

    def single_task_instance(
        self,
        n_users: int,
        requirement: float | None = None,
        seed: int | None = None,
    ) -> GeneratedSingleTask:
        """Fix a popular task cell and sample ``n_users`` who can reach it.

        Args:
            n_users: Number of participating users.
            requirement: PoS requirement ``T`` override (defaults to config).
            seed: RNG seed for this instance.

        Raises:
            ValidationError: If the fleet has fewer than ``n_users`` taxis
                that could possibly serve any popular cell.
        """
        if n_users <= 0:
            raise ValidationError(f"n_users must be positive, got {n_users!r}")
        rng = self._rng(seed)
        with span(self.tracer, "workload.single_task", n_users=n_users):
            return single_task_vectorized(
                self.fleet_profiles(), self.config, n_users, requirement, rng
            )

    def single_task_instance_reference(
        self,
        n_users: int,
        requirement: float | None = None,
        seed: int | None = None,
    ) -> GeneratedSingleTask:
        """The per-taxi loop: the parity oracle of
        :meth:`single_task_instance`, with a bit-identical result."""
        rng = self._rng(seed)
        pos_requirement = (
            self.config.pos_requirement if requirement is None else requirement
        )

        all_taxis = list(self.model.taxi_ids)
        popular = self._popular_cells(all_taxis)
        # The task: one of the most commonly predicted destinations, chosen
        # at random among the top handful ("a randomly chosen task", §IV-C).
        top_pool = [cell for cell, _ in popular[:5]]
        task_cell = int(rng.choice(top_pool))

        candidates: list[tuple[int, float]] = []
        for taxi_id in all_taxis:
            pos = dict(self._ranked[taxi_id]).get(task_cell)
            if pos is None:
                # Fall back to the full profile: the taxi may reach the cell
                # with low probability even if it is not a top prediction.
                pos = self.model.reach_profile(
                    taxi_id, self._current[taxi_id], self.config.pos_horizon
                ).get(task_cell)
            if pos is not None and pos > 0.0:
                candidates.append((taxi_id, float(pos)))
        if len(candidates) < n_users:
            raise ValidationError(
                f"only {len(candidates)} taxis can serve cell {task_cell}; "
                f"need {n_users} — enlarge the fleet"
            )
        chosen_idx = rng.choice(len(candidates), size=n_users, replace=False)
        chosen = [candidates[i] for i in chosen_idx]
        costs = sample_costs(self.config, n_users, rng)

        q_requirement = pos_to_contribution(pos_requirement)
        contributions = [pos_to_contribution(p) for _, p in chosen]
        repair = RepairReport()
        total = sum(contributions)
        needed = self.config.feasibility_margin * q_requirement
        if total < needed and self.config.repair == "boost":
            lam = needed / total if total > 0 else float("inf")
            boosted = [min(q * lam, pos_to_contribution(_MAX_BOOSTED_POS)) for q in contributions]
            if sum(boosted) >= q_requirement:
                contributions = boosted
                repair = RepairReport(boosted_tasks={task_cell: lam})
        instance = SingleTaskInstance(
            requirement=q_requirement,
            user_ids=tuple(range(n_users)),
            costs=tuple(float(c) for c in costs),
            contributions=tuple(contributions),
        )
        taxi_of_user = {i: taxi_id for i, (taxi_id, _) in enumerate(chosen)}
        return GeneratedSingleTask(
            instance=instance, task_cell=task_cell, taxi_of_user=taxi_of_user, repair=repair
        )

    # ------------------------------------------------------------------ #
    # Multi task
    # ------------------------------------------------------------------ #

    def multi_task_instance(
        self,
        n_users: int,
        n_tasks: int,
        requirement: float | None = None,
        seed: int | None = None,
    ) -> GeneratedMultiTask:
        """Sample users and build the task pool from their predictions.

        Users whose top predictions miss the pool entirely are replaced by
        fresh taxis (counted in the repair report); tasks that remain
        uncoverable after repair are dropped (or boosted, per config).
        """
        if n_users <= 0 or n_tasks <= 0:
            raise ValidationError("n_users and n_tasks must be positive")
        rng = self._rng(seed)
        with span(
            self.tracer, "workload.multi_task", n_users=n_users, n_tasks=n_tasks
        ):
            return multi_task_vectorized(
                self.fleet_profiles(), self.config, n_users, n_tasks, requirement, rng
            )

    def multi_task_instance_reference(
        self,
        n_users: int,
        n_tasks: int,
        requirement: float | None = None,
        seed: int | None = None,
    ) -> GeneratedMultiTask:
        """The per-taxi loop: the parity oracle of
        :meth:`multi_task_instance`, with a bit-identical result."""
        rng = self._rng(seed)
        pos_requirement = (
            self.config.pos_requirement if requirement is None else requirement
        )
        all_taxis = list(self.model.taxi_ids)
        if len(all_taxis) < n_users:
            raise ValidationError(
                f"fleet has {len(all_taxis)} taxis; need {n_users} users"
            )
        order = list(rng.permutation(all_taxis))
        sampled = order[:n_users]
        reserve = order[n_users:]

        pool = [cell for cell, _ in self._popular_cells(sampled)[:n_tasks]]
        pool_set = set(pool)

        users: list[tuple[int, dict[int, float]]] = []  # (taxi, task->pos)
        resampled = 0
        # Index pointer instead of reserve.pop(0): popping the head of a
        # list is O(len(reserve)) per resample.
        next_reserve = 0
        for taxi_id in sampled:
            bundle = self._bundle_for(taxi_id, pool_set, rng)
            while bundle is None and next_reserve < len(reserve):
                resampled += 1
                taxi_id = reserve[next_reserve]
                next_reserve += 1
                bundle = self._bundle_for(taxi_id, pool_set, rng)
            if bundle is None:
                raise ValidationError(
                    "could not find enough taxis whose predictions overlap the task pool"
                )
            users.append((taxi_id, bundle))

        q_requirement = pos_to_contribution(pos_requirement)
        coverage: dict[int, float] = {cell: 0.0 for cell in pool}
        for _, bundle in users:
            for cell, p in bundle.items():
                coverage[cell] += pos_to_contribution(p)

        boosted: dict[int, float] = {}
        dropped: list[int] = []
        needed = self.config.feasibility_margin * q_requirement
        for cell in pool:
            if coverage[cell] >= needed:
                continue
            if self.config.repair == "none":
                continue
            if self.config.repair == "boost" and coverage[cell] > 0:
                lam = needed / coverage[cell]
                new_total = self._apply_boost(users, cell, lam)
                if new_total >= q_requirement:
                    boosted[cell] = lam
                    continue
            dropped.append(cell)

        # Hoisted membership sets: rebuilding set(dropped)/set(kept_cells)
        # inside the per-user loop made assembly O(n_users · n_tasks).
        dropped_set = frozenset(dropped)
        kept_cells = tuple(cell for cell in pool if cell not in dropped_set)
        if not kept_cells:
            raise ValidationError("every task was dropped during feasibility repair")
        kept_set = frozenset(kept_cells)
        tasks = [Task(cell, pos_requirement) for cell in kept_cells]
        costs = sample_costs(self.config, len(users), rng)
        user_types = []
        taxi_of_user: dict[int, int] = {}
        for i, ((taxi_id, bundle), cost) in enumerate(zip(users, costs)):
            kept_bundle = {c: p for c, p in bundle.items() if c in kept_set}
            if not kept_bundle:
                continue  # the user's entire bundle was dropped
            user_types.append(UserType(i, cost=float(cost), pos=kept_bundle))
            taxi_of_user[i] = taxi_id
        instance = AuctionInstance(tasks, user_types)
        return GeneratedMultiTask(
            instance=instance,
            task_cells=kept_cells,
            taxi_of_user=taxi_of_user,
            repair=RepairReport(
                boosted_tasks=boosted,
                dropped_tasks=tuple(dropped),
                resampled_users=resampled,
            ),
        )

    def _bundle_for(
        self, taxi_id: int, pool: set[int], rng: np.random.Generator
    ) -> dict[int, float] | None:
        """The taxi's task bundle: her top pool predictions, or None if empty."""
        k = sample_task_set_size(self.config, rng)
        in_pool = [(cell, p) for cell, p in self._ranked[taxi_id] if cell in pool]
        if not in_pool:
            return None
        return dict(in_pool[:k])

    @staticmethod
    def _apply_boost(
        users: list[tuple[int, dict[int, float]]], cell: int, lam: float
    ) -> float:
        """Scale every contributor's contribution for ``cell`` by ``λ`` in place.

        ``q' = λ·q`` in contribution space is ``p' = 1 − (1−p)^λ`` in PoS
        space; boosted values are clamped at :data:`_MAX_BOOSTED_POS`.
        Returns the task's new total contribution.
        """
        total = 0.0
        for _, bundle in users:
            if cell in bundle:
                q = pos_to_contribution(bundle[cell]) * lam
                p = min(contribution_to_pos(q), _MAX_BOOSTED_POS)
                bundle[cell] = p
                total += pos_to_contribution(p)
        return total
