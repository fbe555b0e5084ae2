"""Domain types for the crowdsensing auction (paper, Section II).

The module defines immutable value objects shared by every mechanism:

* :class:`Task` — a location-aware sensing task with a PoS requirement;
* :class:`UserType` — a user's (possibly declared) type
  ``θ_i = (S_i, c_i, {p_i^j})``;
* :class:`AuctionInstance` — a full multi-task instance (tasks + users);
* :class:`SingleTaskInstance` — the specialised single-task view used by the
  FPTAS mechanism, where each user is reduced to a (cost, contribution) pair.

All objects validate on construction, so downstream algorithms can assume
costs are positive and PoS values lie in ``[0, 1]``.  Types are hashable and
frozen, which the mechanisms rely on when they build counterfactual profiles
(e.g. "everyone except user *i*").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from .errors import ValidationError
from .transforms import pos_to_contribution

__all__ = [
    "Task",
    "UserType",
    "AuctionInstance",
    "SingleTaskInstance",
    "single_task_view",
]


@dataclass(frozen=True, slots=True)
class Task:
    """A sensing task with a probability-of-success requirement.

    Attributes:
        task_id: Stable integer identifier (e.g. a grid-cell index).
        requirement: PoS requirement ``T_j`` in ``[0, 1)``.  The task must be
            completed with probability at least ``T_j``.
    """

    task_id: int
    requirement: float

    def __post_init__(self) -> None:
        if not isinstance(self.task_id, int):
            raise ValidationError(f"task_id must be int, got {type(self.task_id).__name__}")
        if not (0.0 <= self.requirement < 1.0):
            raise ValidationError(
                f"task {self.task_id}: requirement must be in [0, 1), got {self.requirement!r}"
            )

    @property
    def contribution_requirement(self) -> float:
        """The log-domain requirement ``Q_j = -ln(1 - T_j)``."""
        return pos_to_contribution(self.requirement)


def _frozen_pos_map(pos: Mapping[int, float]) -> Mapping[int, float]:
    """Copy and freeze a per-task PoS mapping."""
    return MappingProxyType(dict(pos))


@dataclass(frozen=True)
class UserType:
    """A user's type ``θ_i = (S_i, c_i, {p_i^j | j ∈ S_i})``.

    ``pos`` maps each task id in the user's bundle to her probability of
    success for that task.  The bundle ``S_i`` is exactly ``pos.keys()``.
    The cost ``c_i`` is incurred whether or not any task succeeds (the paper's
    opportunistic-sensing interpretation: devices sense continuously in the
    background).

    Instances are immutable; use :meth:`with_pos` / :meth:`with_cost` to build
    deviated ("misreported") types when testing strategy-proofness.
    """

    user_id: int
    cost: float
    pos: Mapping[int, float]

    def __post_init__(self) -> None:
        if not isinstance(self.user_id, int):
            raise ValidationError(f"user_id must be int, got {type(self.user_id).__name__}")
        if not (math.isfinite(self.cost) and self.cost > 0.0):
            raise ValidationError(
                f"user {self.user_id}: cost must be finite and positive, got {self.cost!r}"
            )
        if not self.pos:
            raise ValidationError(f"user {self.user_id}: task set must be non-empty")
        for task_id, p in self.pos.items():
            if not isinstance(task_id, int):
                raise ValidationError(
                    f"user {self.user_id}: task ids must be int, got {task_id!r}"
                )
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                raise ValidationError(
                    f"user {self.user_id}: PoS for task {task_id} must be in [0, 1], got {p!r}"
                )
        object.__setattr__(self, "pos", _frozen_pos_map(self.pos))

    @property
    def task_set(self) -> frozenset[int]:
        """The bundle ``S_i`` the (single-minded) user is willing to perform."""
        return frozenset(self.pos.keys())

    def contribution(self, task_id: int) -> float:
        """Contribution ``q_i^j = -ln(1 - p_i^j)`` for one task (0 if absent)."""
        p = self.pos.get(task_id)
        return 0.0 if p is None else pos_to_contribution(p)

    def contributions(self) -> dict[int, float]:
        """All per-task contributions as a plain dict."""
        return {j: pos_to_contribution(p) for j, p in self.pos.items()}

    def total_contribution(self) -> float:
        """Sum of contributions over the user's bundle (used by Eq. (6))."""
        return sum(pos_to_contribution(p) for p in self.pos.values())

    def with_pos(self, pos: Mapping[int, float]) -> "UserType":
        """A copy of this type with a different declared PoS profile."""
        return replace(self, pos=dict(pos))

    def with_cost(self, cost: float) -> "UserType":
        """A copy of this type with a different declared cost."""
        return replace(self, cost=cost)

    def with_scaled_pos(self, factor: float) -> "UserType":
        """A copy with every PoS multiplied by ``factor`` (clamped to [0, 1]).

        Linear scaling in probability space *changes the bundle's shape* in
        contribution space; prefer :meth:`with_scaled_contributions` when
        modelling the paper's single-minded magnitude misreports.
        """
        scaled = {j: min(max(p * factor, 0.0), 1.0) for j, p in self.pos.items()}
        return self.with_pos(scaled)

    def with_scaled_contributions(self, factor: float) -> "UserType":
        """A copy with every *contribution* scaled by ``factor``.

        ``q' = factor·q`` is ``p' = 1 − (1−p)^factor`` in probability space.
        This preserves the bundle's shape (relative per-task weights), which
        is the deviation space of a single-minded user misreporting only how
        reliable she is overall — the model under which the corrected
        critical-bid pricing is strategy-proof (see
        :mod:`repro.core.critical`).
        """
        if factor < 0:
            raise ValidationError(f"factor must be >= 0, got {factor!r}")
        scaled = {j: 1.0 - (1.0 - min(p, 1.0 - 1e-15)) ** factor for j, p in self.pos.items()}
        return self.with_pos(scaled)

    def __hash__(self) -> int:
        return hash((self.user_id, self.cost, tuple(sorted(self.pos.items()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserType):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.cost == other.cost
            and dict(self.pos) == dict(other.pos)
        )


@dataclass(frozen=True)
class AuctionInstance:
    """A complete multi-task auction instance: tasks plus declared user types.

    Validation guarantees unique task and user ids and that every task id a
    user bids on refers to a task of the instance.  Feasibility (enough
    aggregate contribution per task) is *not* required at construction — the
    winner-determination algorithms raise
    :class:`~repro.core.errors.InfeasibleInstanceError` when they detect it —
    but :meth:`uncoverable_tasks` lets callers check upfront.
    """

    tasks: tuple[Task, ...]
    users: tuple[UserType, ...]

    def __init__(self, tasks, users):
        object.__setattr__(self, "tasks", tuple(tasks))
        object.__setattr__(self, "users", tuple(users))
        # Not a dataclass field, so ``==`` and hashing still see only
        # ``tasks`` and ``users``.
        object.__setattr__(self, "_users_by_id", {u.user_id: u for u in self.users})
        self._validate()

    def _validate(self) -> None:
        if not self.tasks:
            raise ValidationError("instance must contain at least one task")
        task_ids = [t.task_id for t in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ValidationError("duplicate task ids in instance")
        if len(self._users_by_id) != len(self.users):
            raise ValidationError("duplicate user ids in instance")
        known = set(task_ids)
        for user in self.users:
            unknown = user.task_set - known
            if unknown:
                raise ValidationError(
                    f"user {user.user_id} bids on unknown tasks {sorted(unknown)}"
                )

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def task_by_id(self, task_id: int) -> Task:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise KeyError(task_id)

    def user_by_id(self, user_id: int) -> UserType:
        return self._users_by_id[user_id]

    def requirements(self) -> dict[int, float]:
        """Map task id to contribution requirement ``Q_j``."""
        return {t.task_id: t.contribution_requirement for t in self.tasks}

    def without_user(self, user_id: int) -> "AuctionInstance":
        """Counterfactual instance with one user removed (for Algorithm 5)."""
        remaining = tuple(u for u in self.users if u.user_id != user_id)
        return AuctionInstance(self.tasks, remaining)

    def with_replaced_user(self, new_type: UserType) -> "AuctionInstance":
        """Instance where the user with ``new_type.user_id`` declares ``new_type``."""
        swapped = tuple(
            new_type if u.user_id == new_type.user_id else u for u in self.users
        )
        if all(u.user_id != new_type.user_id for u in self.users):
            raise KeyError(new_type.user_id)
        return AuctionInstance(self.tasks, swapped)

    def coverage(self, task_id: int) -> float:
        """Total contribution available for one task across all users."""
        return sum(u.contribution(task_id) for u in self.users)

    def uncoverable_tasks(self) -> frozenset[int]:
        """Task ids whose requirement exceeds the aggregate contribution."""
        bad = frozenset(
            t.task_id
            for t in self.tasks
            if self.coverage(t.task_id) < t.contribution_requirement - 1e-12
        )
        return bad

    def is_feasible(self) -> bool:
        return not self.uncoverable_tasks()


@dataclass(frozen=True, slots=True)
class SingleTaskInstance:
    """The single-task specialisation: a minimum knapsack instance.

    Each user is summarised by ``(user_id, cost, contribution)``; the
    requirement is the log-domain ``Q``.  Built from an
    :class:`AuctionInstance` via :func:`single_task_view`, or directly from
    parallel arrays for synthetic experiments.
    """

    requirement: float
    user_ids: tuple[int, ...]
    costs: tuple[float, ...]
    contributions: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.requirement < 0 or not math.isfinite(self.requirement):
            raise ValidationError(f"requirement must be finite and >= 0: {self.requirement!r}")
        n = len(self.user_ids)
        if len(self.costs) != n or len(self.contributions) != n:
            raise ValidationError("user_ids, costs and contributions must have equal length")
        if len(set(self.user_ids)) != n:
            raise ValidationError("duplicate user ids")
        for uid, c, q in zip(self.user_ids, self.costs, self.contributions):
            if not (math.isfinite(c) and c > 0):
                raise ValidationError(f"user {uid}: cost must be positive, got {c!r}")
            if not (math.isfinite(q) and q >= 0):
                raise ValidationError(f"user {uid}: contribution must be >= 0, got {q!r}")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def index_of(self, user_id: int) -> int:
        return self.user_ids.index(user_id)

    def total_contribution(self) -> float:
        return sum(self.contributions)

    def is_feasible(self) -> bool:
        return self.total_contribution() >= self.requirement - 1e-12

    def cost_of(self, selected: frozenset[int]) -> float:
        """Total cost of a set of *user ids*."""
        by_id = dict(zip(self.user_ids, self.costs))
        return sum(by_id[uid] for uid in selected)

    def contribution_of(self, selected: frozenset[int]) -> float:
        by_id = dict(zip(self.user_ids, self.contributions))
        return sum(by_id[uid] for uid in selected)

    def with_contribution(self, user_id: int, contribution: float) -> "SingleTaskInstance":
        """Counterfactual instance where one user declares a new contribution."""
        idx = self.index_of(user_id)
        new_q = list(self.contributions)
        new_q[idx] = contribution
        return SingleTaskInstance(
            self.requirement, self.user_ids, self.costs, tuple(new_q)
        )

    def without_user(self, user_id: int) -> "SingleTaskInstance":
        keep = [i for i, uid in enumerate(self.user_ids) if uid != user_id]
        return SingleTaskInstance(
            self.requirement,
            tuple(self.user_ids[i] for i in keep),
            tuple(self.costs[i] for i in keep),
            tuple(self.contributions[i] for i in keep),
        )


def single_task_view(instance: AuctionInstance, task_id: int) -> SingleTaskInstance:
    """Project a multi-task instance onto one task.

    Only users whose bundle contains ``task_id`` participate; each is reduced
    to her (cost, contribution-for-that-task) pair.
    """
    task = instance.task_by_id(task_id)
    participants = [u for u in instance.users if task_id in u.task_set]
    return SingleTaskInstance(
        requirement=task.contribution_requirement,
        user_ids=tuple(u.user_id for u in participants),
        costs=tuple(u.cost for u in participants),
        contributions=tuple(u.contribution(task_id) for u in participants),
    )
