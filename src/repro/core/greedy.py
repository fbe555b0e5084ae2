"""Greedy winner determination for the multi-task setting (Algorithm 4).

The algorithm repeatedly picks the user with the highest *contribution-cost
ratio* — her capped marginal contribution ``Σ_j min{q_i^j, Q̄_j}`` divided by
her cost — then deducts her contribution from the residual requirements
``Q̄``, until every task's requirement is met.  This is the classic greedy
for submodular set cover; Theorem 5 bounds its cost by ``H(γ)`` times the
optimum and Theorem 6 its running time by ``O(n²t)``.

Besides the selected set, :func:`greedy_allocation` records a full
:class:`GreedyTrace` of the iterations (who was picked, at what residual
requirements, with what gain and ratio).  The multi-task reward scheme
(Algorithm 5) replays exactly this trace on the instance without user ``i``
to compute her critical bid, so keeping the trace in one place guarantees
the reward scheme prices against the very same allocation rule.  The CSR
loop itself exists once, in ``_CsrGreedy``: :func:`greedy_allocation`
runs it to the end, and the batch pricer's master run drives the same
loop step by step.

Tie-breaking: on equal ratios the lowest user id wins, making the allocation
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrib_matrix import ContributionMatrix
from .errors import InfeasibleInstanceError
from .types import AuctionInstance, UserType

__all__ = [
    "GreedyIteration",
    "GreedyTrace",
    "greedy_allocation",
    "greedy_allocation_dense",
    "greedy_allocation_reference",
    "capped_gain",
    "select_best_row",
    "positive_residual_snapshot",
]

_EPS = 1e-12


def capped_gain(user: UserType, residual: dict[int, float]) -> float:
    """The user's capped marginal contribution ``Σ_j min{q_i^j, Q̄_j}``."""
    gain = 0.0
    for task_id in user.task_set:
        remaining = residual.get(task_id, 0.0)
        if remaining > 0.0:
            gain += min(user.contribution(task_id), remaining)
    return gain


def select_best_row(gains: np.ndarray, ratios: np.ndarray) -> int:
    """Algorithm 4's selection scan, vectorised.

    Reproduces the reference rule exactly: walk rows in ascending user id,
    skip rows with gain ``<= _EPS``, and let a later row displace the
    incumbent only when its ratio is strictly better by more than ``_EPS``.
    When the maximum ratio beats the runner-up by more than ``_EPS`` the
    incumbent chain provably ends at the (unique) argmax, so a masked argmax
    suffices; only ε-level ties fall back to the literal scan.

    Returns the selected row, or ``-1`` when no row has positive gain.
    """
    eligible = gains > _EPS
    if not eligible.any():
        return -1
    masked = np.where(eligible, ratios, -np.inf)
    best = int(np.argmax(masked))
    top = float(masked[best])
    masked[best] = -np.inf
    if top > float(masked.max()) + _EPS:
        return best
    # ε-level tie between the top ratios: replay the reference incumbent
    # chain (its outcome can depend on rows *below* the top band).
    best_row = -1
    best_ratio = 0.0
    for row in np.flatnonzero(eligible):
        ratio = float(ratios[row])
        if best_row < 0 or ratio > best_ratio + _EPS:
            best_row, best_ratio = int(row), ratio
    return best_row


def positive_residual_snapshot(residual: np.ndarray, task_ids: list[int]) -> dict[int, float]:
    """Snapshot only tasks with positive residual (missing keys mean 0).

    ``GreedyIteration.residual_before`` consumers read through
    ``.get(j, 0.0)``, so satisfied tasks can be dropped; this turns the
    per-iteration O(t) dict into O(open tasks), which matters once the
    greedy has covered most requirements.
    """
    return {
        tid: float(residual[k]) for k, tid in enumerate(task_ids) if residual[k] > 0.0
    }


@dataclass(frozen=True, slots=True)
class GreedyIteration:
    """One iteration of Algorithm 4's main loop.

    Attributes:
        user_id: The user selected in this iteration.
        residual_before: Residual requirements ``Q̄`` at the iteration start
            (task id -> remaining contribution), as used for the ratio.
            Only tasks with *positive* residual appear; a missing key means
            the task was already satisfied (readers use ``.get(j, 0.0)``).
        gain: The selected user's capped contribution at that point.
        ratio: ``gain / cost`` — the criterion maximised.
        cost: The selected user's cost.
    """

    user_id: int
    residual_before: dict[int, float]
    gain: float
    ratio: float
    cost: float


@dataclass(frozen=True, slots=True)
class GreedyTrace:
    """Full record of a greedy run.

    Attributes:
        selected: Winning user ids in selection order.
        iterations: Per-iteration records (same order as ``selected``).
        residual_after: Final residual requirements (all zero iff satisfied).
        satisfied: Whether every task's requirement was met.
    """

    selected: tuple[int, ...]
    iterations: tuple[GreedyIteration, ...]
    residual_after: dict[int, float]
    satisfied: bool

    @property
    def selected_set(self) -> frozenset[int]:
        return frozenset(self.selected)

    def total_cost(self, instance: AuctionInstance) -> float:
        return sum(instance.user_by_id(uid).cost for uid in self.selected)


def greedy_allocation_dense(
    instance: AuctionInstance, require_feasible: bool = True, counters=None, tracer=None
) -> GreedyTrace:
    """Algorithm 4 on a dense ``n × t`` matrix, rescanning every row per
    iteration: the parity oracle of :func:`greedy_allocation`, with the
    same arguments and a byte-for-byte equal trace.  No run path calls
    it; the parity tests and the scaling benchmark's baseline do."""
    task_ids = [t.task_id for t in instance.tasks]
    task_index = {tid: k for k, tid in enumerate(task_ids)}
    users = sorted(instance.users, key=lambda u: u.user_id)
    n, t = len(users), len(task_ids)

    contrib = np.zeros((n, t))
    for row, user in enumerate(users):
        for tid, p in user.pos.items():
            contrib[row, task_index[tid]] = user.contribution(tid)
    costs = np.array([u.cost for u in users])
    uids = [u.user_id for u in users]
    residual = np.array([t_.contribution_requirement for t_ in instance.tasks])
    active = np.ones(n, dtype=bool)

    selected: list[int] = []
    iterations: list[GreedyIteration] = []

    while (residual > _EPS).any():
        gains = np.minimum(contrib, residual[None, :]).sum(axis=1)
        gains[~active] = 0.0
        ratios = gains / costs
        if counters is not None:
            counters.greedy_iterations += 1
        best_row = select_best_row(gains, ratios)
        if best_row < 0:
            if require_feasible:
                uncovered = frozenset(
                    tid for k, tid in enumerate(task_ids) if residual[k] > _EPS
                )
                raise InfeasibleInstanceError(
                    f"tasks {sorted(uncovered)} cannot reach their requirements",
                    uncoverable_tasks=uncovered,
                )
            break
        snapshot = positive_residual_snapshot(residual, task_ids)
        iterations.append(
            GreedyIteration(
                user_id=uids[best_row],
                residual_before=snapshot,
                gain=float(gains[best_row]),
                ratio=float(ratios[best_row]),
                cost=float(costs[best_row]),
            )
        )
        if tracer is not None:
            tracer.event(
                "greedy.select",
                user_id=uids[best_row],
                iteration=len(selected),
                gain=float(gains[best_row]),
                ratio=float(ratios[best_row]),
                cost=float(costs[best_row]),
                residual_open=len(snapshot),
                residual_total=float(sum(snapshot.values())),
            )
        selected.append(uids[best_row])
        active[best_row] = False
        residual = np.maximum(0.0, residual - contrib[best_row])

    satisfied = bool((residual <= _EPS).all())
    return GreedyTrace(
        selected=tuple(selected),
        iterations=tuple(iterations),
        residual_after={tid: float(residual[k]) for k, tid in enumerate(task_ids)},
        satisfied=satisfied,
    )


def greedy_allocation(
    instance: AuctionInstance,
    require_feasible: bool = True,
    counters=None,
    tracer=None,
) -> GreedyTrace:
    """Run Algorithm 4 on a multi-task instance.

    The greedy runs on a sparse CSR contribution matrix with incremental
    gain maintenance.  After selecting a winner, only rows sharing a
    *still-open* task with her can see a different capped gain — every
    other row's per-task ``min(q_i^j, Q̄_j)`` terms are unchanged (its own
    residuals did not move, and tasks it skips contribute an exact 0 at
    any residual).  Recomputing just those rows through the same
    full-width reduction a dense rescan uses therefore reproduces the full
    rescan bit for bit at O(affected rows · t) per iteration instead of
    O(n·t), with peak memory bounded by the CSR arrays plus a fixed
    scratch block (no dense ``n×t`` allocation).

    Args:
        instance: The auction instance (declared types).
        require_feasible: When ``True`` (default) raise
            :class:`InfeasibleInstanceError` if requirements cannot all be
            met; when ``False`` return a trace with ``satisfied=False`` after
            running until no user offers positive gain.  The reward scheme
            uses the latter mode for counterfactual runs without a pivotal
            user.
        counters: Optional :class:`repro.perf.instrumentation.PerfCounters`
            (duck-typed) accumulating ``greedy_iterations`` and
            ``greedy_rows_recomputed``.
        tracer: Optional :class:`repro.obs.tracing.Tracer` (duck-typed);
            when set, every selection decision is recorded as a
            ``greedy.select`` audit event (marginal contribution,
            cost-effectiveness ratio, residual coverage).

    Returns:
        The :class:`GreedyTrace` of the run.

    :func:`greedy_allocation_dense` is the dense full-rescan oracle and
    :func:`greedy_allocation_reference` the paper-literal pure-Python
    version the tests cross-validate against.  The dense oracle applies
    the identical selection rule (:func:`select_best_row`) to the same
    floats, so the two traces are byte-for-byte equal.
    """
    greedy = _CsrGreedy(instance, counters, tracer)
    while greedy.is_open() and greedy.step(require_feasible):
        pass
    return greedy.trace()


class _CsrGreedy:
    """Algorithm 4's CSR loop, advanced one selection per :meth:`step`.

    Owns the users in ascending id order, their :class:`ContributionMatrix`,
    costs, ids and the residual vector, plus the incremental gain state:
    gains live in full-length arrays with selected rows zeroed (a zero gain
    is below the :func:`select_best_row` eligibility floor, so it can never
    be re-picked), and after each selection only the rows sharing a
    still-open task with the winner are recomputed.

    :func:`greedy_allocation` runs it to the end.  The batch pricer's
    master run (:class:`repro.perf.batch_pricer.BatchPricer`) drives the
    same loop step by step, snapshotting the residual and checkpointing
    ``ratios`` between steps, and its replays reuse ``matrix``, ``costs``
    and ``uids`` — so one loop serves winner determination and pricing.
    """

    def __init__(self, instance: AuctionInstance, counters=None, tracer=None):
        self.task_ids = [t.task_id for t in instance.tasks]
        self.task_index = {tid: k for k, tid in enumerate(self.task_ids)}
        users = sorted(instance.users, key=lambda u: u.user_id)
        n = len(users)
        self.matrix = ContributionMatrix(users, self.task_index, len(self.task_ids))
        self.costs = np.array([u.cost for u in users])
        self.uids = [u.user_id for u in users]
        self.residual = np.array([t.contribution_requirement for t in instance.tasks])
        self.active = np.ones(n, dtype=bool)
        self.gains = (
            self.matrix.gains(np.arange(n, dtype=np.int64), self.residual)
            if n
            else np.empty(0)
        )
        self.ratios = self.gains / self.costs if n else np.empty(0)
        if counters is not None:
            counters.greedy_rows_recomputed += n
        self.counters = counters
        self.tracer = tracer
        self.selected_rows: list[int] = []
        self.iterations: list[GreedyIteration] = []

    def is_open(self) -> bool:
        """Whether some task's requirement is still unmet."""
        return bool((self.residual > _EPS).any())

    def step(self, require_feasible: bool) -> bool:
        """One iteration: select, record, update the residual and gains.

        Returns ``False`` (selecting nothing) when no row offers positive
        gain; with ``require_feasible`` that raises
        :class:`InfeasibleInstanceError` instead.
        """
        counters = self.counters
        if counters is not None:
            counters.greedy_iterations += 1
        gains, ratios, costs, residual = self.gains, self.ratios, self.costs, self.residual
        best_row = select_best_row(gains, ratios)
        if best_row < 0:
            if require_feasible:
                uncovered = frozenset(
                    tid for k, tid in enumerate(self.task_ids) if residual[k] > _EPS
                )
                raise InfeasibleInstanceError(
                    f"tasks {sorted(uncovered)} cannot reach their requirements",
                    uncoverable_tasks=uncovered,
                )
            return False
        snapshot = positive_residual_snapshot(residual, self.task_ids)
        user_id = self.uids[best_row]
        gain = float(gains[best_row])
        ratio = float(ratios[best_row])
        cost = float(costs[best_row])
        self.iterations.append(
            GreedyIteration(
                user_id=user_id,
                residual_before=snapshot,
                gain=gain,
                ratio=ratio,
                cost=cost,
            )
        )
        if self.tracer is not None:
            self.tracer.event(
                "greedy.select",
                user_id=user_id,
                iteration=len(self.selected_rows),
                gain=gain,
                ratio=ratio,
                cost=cost,
                residual_open=len(snapshot),
                residual_total=float(sum(snapshot.values())),
            )
        self.selected_rows.append(best_row)
        self.active[best_row] = False
        gains[best_row] = 0.0
        ratios[best_row] = 0.0

        changed = self.matrix.subtract_row(best_row, residual)
        affected = self.matrix.rows_touching(changed)
        affected = affected[self.active[affected]]
        if affected.size:
            gains[affected] = self.matrix.gains(affected, residual)
            ratios[affected] = gains[affected] / costs[affected]
            if counters is not None:
                counters.greedy_rows_recomputed += int(affected.size)
        return True

    def trace(self) -> GreedyTrace:
        """The run so far as a :class:`GreedyTrace`."""
        residual = self.residual
        return GreedyTrace(
            selected=tuple(self.uids[row] for row in self.selected_rows),
            iterations=tuple(self.iterations),
            residual_after={tid: float(residual[k]) for k, tid in enumerate(self.task_ids)},
            satisfied=bool((residual <= _EPS).all()),
        )


def greedy_allocation_reference(
    instance: AuctionInstance, require_feasible: bool = True
) -> GreedyTrace:
    """Paper-literal pure-Python Algorithm 4 (reference for cross-checks)."""
    residual: dict[int, float] = {
        t.task_id: t.contribution_requirement for t in instance.tasks
    }
    available: dict[int, UserType] = {u.user_id: u for u in instance.users}
    selected: list[int] = []
    iterations: list[GreedyIteration] = []

    while any(r > _EPS for r in residual.values()):
        best_uid: int | None = None
        best_ratio = 0.0
        best_gain = 0.0
        for uid in sorted(available):
            user = available[uid]
            gain = capped_gain(user, residual)
            if gain <= _EPS:
                continue
            ratio = gain / user.cost
            if best_uid is None or ratio > best_ratio + _EPS:
                best_uid, best_ratio, best_gain = uid, ratio, gain
        if best_uid is None:
            if require_feasible:
                uncovered = frozenset(j for j, r in residual.items() if r > _EPS)
                raise InfeasibleInstanceError(
                    f"tasks {sorted(uncovered)} cannot reach their requirements",
                    uncoverable_tasks=uncovered,
                )
            break
        winner = available.pop(best_uid)
        iterations.append(
            GreedyIteration(
                user_id=best_uid,
                residual_before={j: r for j, r in residual.items() if r > 0.0},
                gain=best_gain,
                ratio=best_ratio,
                cost=winner.cost,
            )
        )
        selected.append(best_uid)
        for task_id in winner.task_set:
            if task_id in residual:
                residual[task_id] = max(0.0, residual[task_id] - winner.contribution(task_id))

    satisfied = all(r <= _EPS for r in residual.values())
    return GreedyTrace(
        selected=tuple(selected),
        iterations=tuple(iterations),
        residual_after=dict(residual),
        satisfied=satisfied,
    )
