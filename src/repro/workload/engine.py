"""Vectorized auction-instance assembly (the workload engine, layer 2).

The bodies of ``WorkloadGenerator.single_task_instance`` and
``multi_task_instance``: they consume the batched
:class:`~repro.mobility.markov_kernel.FleetProfiles` instead of the
per-taxi ``_ranked`` dicts of the generator's ``*_reference`` oracles.
The contract is **bit-identical output**: the same
:class:`~repro.core.types.SingleTaskInstance` /
:class:`~repro.core.types.AuctionInstance`, the same ``taxi_of_user``
maps, the same :class:`~repro.workload.generator.RepairReport` — enforced
by the hypothesis parity suite in ``tests/perf/test_workload_parity.py``.

RNG-order contract
------------------
Parity holds because both paths consume the *same generator stream in
the same order*:

* **single-task** — ``choice(top_pool)``, then
  ``choice(len(candidates), size=n_users, replace=False)``, then the
  ``sample_costs`` batch;
* **multi-task** — ``permutation(all_taxis)``, then one scalar
  ``integers(low, high+1)`` per **attempted** taxi (failed attempts —
  empty bundles — still consume a draw before the reserve taxi is
  tried), then the ``sample_costs`` batch.  Batched ``integers`` draws
  consume the bit stream exactly like the equivalent sequence of scalar
  draws, so the array path simulates the RNG-free part of the
  assignment walk first (pool overlap is a pure set property), counts
  the attempts, and replays all ``k`` draws as one call.

Float-parity rules
------------------
``math.log1p``/``math.expm1`` differ from their numpy counterparts in the
last ulp, so the PoS↔contribution transforms stay *scalar* (applied via
:func:`pos_to_contribution_vec` — vectorized clamping around a scalar
``math.log1p`` map), and left-fold sums are reproduced with
``np.cumsum(a)[-1]`` which matches the builtin ``sum`` bit-for-bit
(unlike numpy's pairwise ``np.sum``).  ``np.add.at`` accumulates
sequentially in index order, matching the reference's per-cell
``coverage[cell] += q`` dict folds.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import ValidationError
from ..core.transforms import MAX_POS, MIN_POS, pos_to_contribution
from ..core.types import AuctionInstance, SingleTaskInstance, Task, UserType
from ..mobility.markov_kernel import FleetProfiles
from .config import SimulationConfig
from .sampling import sample_costs

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from .generator import GeneratedMultiTask, GeneratedSingleTask

__all__ = [
    "pos_to_contribution_vec",
    "contribution_to_pos_vec",
    "single_task_vectorized",
    "multi_task_vectorized",
]


def _seq_sum(values: np.ndarray) -> float:
    """Left-fold sum: bit-identical to ``sum(values.tolist())``."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def pos_to_contribution_vec(pos: np.ndarray) -> np.ndarray:
    """Elementwise :func:`~repro.core.transforms.pos_to_contribution`.

    Bit-identical to the scalar loop: clamping is vectorized (exact
    comparisons), but the log1p itself is ``math.log1p`` per element —
    ``np.log1p`` disagrees in the last ulp on this host.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if not bool(np.isfinite(pos).all()):
        raise ValueError("PoS values must be finite")
    clamped = np.clip(pos, MIN_POS, MAX_POS)
    out = np.fromiter(
        map(math.log1p, (-clamped).tolist()), dtype=np.float64, count=clamped.size
    )
    np.negative(out, out=out)
    return out


def contribution_to_pos_vec(contributions: np.ndarray) -> np.ndarray:
    """Elementwise :func:`~repro.core.transforms.contribution_to_pos` (scalar expm1)."""
    contributions = np.asarray(contributions, dtype=np.float64)
    if contributions.size and bool((contributions < 0).any()):
        raise ValueError("contributions must be non-negative")
    out = np.fromiter(
        map(math.expm1, (-contributions).tolist()),
        dtype=np.float64,
        count=contributions.size,
    )
    np.negative(out, out=out)
    return out


def _cell_luts(
    profiles: FleetProfiles, pool: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """``(cmin, in_pool, pool_slot)`` lookup tables over the cell-id range."""
    cmin = int(min(int(profiles.ranked_cells.min()), int(pool.min())))
    cmax = int(max(int(profiles.ranked_cells.max()), int(pool.max())))
    span = cmax - cmin + 1
    in_pool = np.zeros(span, dtype=bool)
    in_pool[pool - cmin] = True
    pool_slot = np.full(span, -1, dtype=np.int64)
    pool_slot[pool - cmin] = np.arange(pool.size, dtype=np.int64)
    return cmin, in_pool, pool_slot


# --------------------------------------------------------------------- #
# Single task
# --------------------------------------------------------------------- #


def single_task_vectorized(
    profiles: FleetProfiles,
    config: SimulationConfig,
    n_users: int,
    requirement: float | None,
    rng: np.random.Generator,
) -> "GeneratedSingleTask":
    """Array path of ``WorkloadGenerator.single_task_instance``."""
    from .generator import _MAX_BOOSTED_POS, GeneratedSingleTask, RepairReport

    pos_requirement = config.pos_requirement if requirement is None else requirement
    cells, _ = profiles.popular_cells()
    top_pool = cells[:5].tolist()
    task_cell = int(rng.choice(top_pool))

    values, present = profiles.reach_at_cell(task_cell)
    mask = present & (values > 0.0)
    cand_rows = np.nonzero(mask)[0]
    if cand_rows.size < n_users:
        raise ValidationError(
            f"only {cand_rows.size} taxis can serve cell {task_cell}; "
            f"need {n_users} — enlarge the fleet"
        )
    chosen_idx = rng.choice(int(cand_rows.size), size=n_users, replace=False)
    chosen_rows = cand_rows[chosen_idx]
    chosen_pos = values[chosen_rows]
    costs = sample_costs(config, n_users, rng)

    q_requirement = pos_to_contribution(pos_requirement)
    contributions = pos_to_contribution_vec(chosen_pos)
    repair = RepairReport()
    total = _seq_sum(contributions)
    needed = config.feasibility_margin * q_requirement
    if total < needed and config.repair == "boost":
        lam = needed / total if total > 0 else float("inf")
        cap = pos_to_contribution(_MAX_BOOSTED_POS)
        boosted = np.minimum(contributions * lam, cap)
        if _seq_sum(boosted) >= q_requirement:
            contributions = boosted
            repair = RepairReport(boosted_tasks={task_cell: lam})
    instance = SingleTaskInstance(
        requirement=q_requirement,
        user_ids=tuple(range(n_users)),
        costs=tuple(costs.tolist()),
        contributions=tuple(contributions.tolist()),
    )
    taxi_of_user = {
        i: taxi for i, taxi in enumerate(profiles.taxi_ids[chosen_rows].tolist())
    }
    return GeneratedSingleTask(
        instance=instance,
        task_cell=task_cell,
        taxi_of_user=taxi_of_user,
        repair=repair,
    )


# --------------------------------------------------------------------- #
# Multi task
# --------------------------------------------------------------------- #


def multi_task_vectorized(
    profiles: FleetProfiles,
    config: SimulationConfig,
    n_users: int,
    n_tasks: int,
    requirement: float | None,
    rng: np.random.Generator,
) -> "GeneratedMultiTask":
    """Array path of ``WorkloadGenerator.multi_task_instance``."""
    from .generator import _MAX_BOOSTED_POS, GeneratedMultiTask, RepairReport

    pos_requirement = config.pos_requirement if requirement is None else requirement
    n_fleet = profiles.n_taxis
    if n_fleet < n_users:
        raise ValidationError(f"fleet has {n_fleet} taxis; need {n_users} users")
    perm = rng.permutation(profiles.taxi_ids)
    rows_perm = np.searchsorted(profiles.taxi_ids, perm)

    pool_cells, _ = profiles.popular_cells(rows_perm[:n_users])
    pool_arr = pool_cells[:n_tasks]
    pool = pool_arr.tolist()
    cmin, in_pool, pool_slot = _cell_luts(profiles, pool_arr)

    # Pool overlap is RNG-free: a taxi yields a bundle iff any ranked
    # candidate lies in the pool.  Simulate the assignment walk first,
    # then replay every attempt's task-set-size draw in one batch.
    flags_all = in_pool[profiles.ranked_cells - cmin]
    row_of_flat = np.repeat(
        np.arange(n_fleet, dtype=np.int64), np.diff(profiles.ranked_indptr)
    )
    overlap = (np.bincount(row_of_flat[flags_all], minlength=n_fleet) > 0).tolist()

    rows_list = rows_perm.tolist()
    attempt_count = 0
    users_rows: list[int] = []
    user_attempt: list[int] = []
    resampled = 0
    ptr = n_users
    for i in range(n_users):
        row = rows_list[i]
        attempt_count += 1
        while not overlap[row]:
            resampled += 1
            if ptr >= n_fleet:
                raise ValidationError(
                    "could not find enough taxis whose predictions overlap the task pool"
                )
            row = rows_list[ptr]
            ptr += 1
            attempt_count += 1
        users_rows.append(row)
        user_attempt.append(attempt_count - 1)
    low, high = config.tasks_per_user
    ks = rng.integers(low, high + 1, size=attempt_count)
    ks_u = ks[np.asarray(user_attempt, dtype=np.int64)]

    # Each user's bundle: the first k pool-hits of her ranked list.
    rows_u = np.asarray(users_rows, dtype=np.int64)
    starts = profiles.ranked_indptr[rows_u]
    lens = profiles.ranked_indptr[rows_u + 1] - starts
    uo = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(lens, out=uo[1:])
    total_entries = int(uo[-1])
    flat = np.arange(total_entries, dtype=np.int64) + np.repeat(starts - uo[:-1], lens)
    cells_f = profiles.ranked_cells[flat]
    pos_f = profiles.ranked_pos[flat]
    hits = in_pool[cells_f - cmin]
    inclusive = np.cumsum(hits)
    before = inclusive - hits
    hit_rank = before - np.repeat(before[uo[:-1]], lens)
    select = hits & (hit_rank < np.repeat(ks_u, lens))
    b_user = np.repeat(np.arange(n_users, dtype=np.int64), lens)[select]
    b_cell = cells_f[select]
    b_pos = pos_f[select].copy()

    # Aggregate coverage: np.add.at folds sequentially in flat (user-major)
    # order — the same left fold as the reference's coverage dict.
    q_requirement = pos_to_contribution(pos_requirement)
    q_f = pos_to_contribution_vec(b_pos)
    slot_f = pool_slot[b_cell - cmin]
    coverage = np.zeros(len(pool), dtype=np.float64)
    np.add.at(coverage, slot_f, q_f)

    boosted: dict[int, float] = {}
    dropped: list[int] = []
    needed = config.feasibility_margin * q_requirement
    for j, cell in enumerate(pool):
        cov = float(coverage[j])
        if cov >= needed:
            continue
        if config.repair == "none":
            continue
        if config.repair == "boost" and cov > 0:
            lam = needed / cov
            sel = np.nonzero(slot_f == j)[0]
            p_new = np.minimum(
                contribution_to_pos_vec(q_f[sel] * lam), _MAX_BOOSTED_POS
            )
            b_pos[sel] = p_new
            if _seq_sum(pos_to_contribution_vec(p_new)) >= q_requirement:
                boosted[cell] = float(lam)
                continue
        dropped.append(cell)

    dropped_cells = set(dropped)
    kept_cells = tuple(cell for cell in pool if cell not in dropped_cells)
    if not kept_cells:
        raise ValidationError("every task was dropped during feasibility repair")
    tasks = [Task(int(cell), pos_requirement) for cell in kept_cells]
    costs = sample_costs(config, n_users, rng)

    span = in_pool.size
    kept_lut = np.zeros(span, dtype=bool)
    kept_lut[np.asarray(kept_cells, dtype=np.int64) - cmin] = True
    keep_entry = kept_lut[b_cell - cmin]
    ku = b_user[keep_entry]
    kc = b_cell[keep_entry].tolist()
    kp = b_pos[keep_entry].tolist()
    per_user = np.bincount(ku, minlength=n_users)
    off = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(per_user, out=off[1:])
    off_l = off.tolist()
    costs_l = costs.tolist()
    taxi_l = profiles.taxi_ids[rows_u].tolist()

    user_types = []
    taxi_of_user: dict[int, int] = {}
    for i in range(n_users):
        a, b = off_l[i], off_l[i + 1]
        if a == b:
            continue  # the user's entire bundle was dropped
        user_types.append(
            UserType(i, cost=costs_l[i], pos=dict(zip(kc[a:b], kp[a:b])))
        )
        taxi_of_user[i] = taxi_l[i]
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
