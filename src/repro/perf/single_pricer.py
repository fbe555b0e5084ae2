"""Memoized critical-bid search for the single-task mechanism (Algorithm 3).

The reference search (:func:`repro.core.critical.critical_contribution_single`)
binary-searches a winner's critical contribution by rerunning the *entire*
FPTAS (Algorithm 2) per probe — ~30–50 full O(n⁴/ε) runs per winner.
:class:`SingleTaskPricer` keeps the probes bit-identical while removing the
redundant work between them:

* **Monotone verdict memo** — by Lemma 1 a win at ``q`` proves wins at every
  ``q' ≥ q`` and a loss proves losses below, so repeated probes (and any
  probe at the declared value, which equals the cached original allocation)
  never recompute.
* **Static-subproblem cache** — FPTAS subproblem ``k`` restricts attention
  to the ``k`` cheapest users.  Costs never change during a critical-bid
  search, so the sort order is fixed; when the probed user ranks at ``r``
  (0-based, by ``(cost, user_id)``), every subproblem with ``k ≤ r``
  excludes her entirely and its solution is independent of the probe.  Those
  are solved once, globally, and reused across probes *and* winners.
* **Shared-prefix DP snapshots** — for subproblems with ``k > r`` the DP
  item layers ``0..r-1`` carry the original contributions, so the DP state
  (value row and decision bits) after layer ``r-1`` is snapshotted on the
  first probe and every later probe resumes from it, re-running only layers
  ``r..k-1``.  This is the knapsack analogue of the greedy prefix replay in
  :class:`repro.perf.batch_pricer.BatchPricer`.
* **Cross-winner prefix batching** — those prefix layers are *user-
  independent* (they carry original contributions only: the probed user
  sits at layer ``r``, above every snapshotted layer), so a snapshot taken
  at layer ``m`` remains valid for any later-priced user of rank ``r' ≥
  m``.  :meth:`SingleTaskPricer.price_all` therefore prices winners in
  ascending rank order and each user's first probe *resumes* the previous
  user's snapshots, advancing them ``m → r'`` instead of recomputing
  layers ``0..m`` — the memoized probes batch across winners, not just
  across one winner's bisection.  Splitting a layer run at ``m`` performs
  the identical per-layer float operations, so probes stay bit-identical.
* **Scaled-cost cache** — the integer cost vectors ``⌊c_j/μ_k⌋`` depend
  only on costs and ε; computed once per ``k``.

All DP layers run through the same row kernel as the reference solver
(:func:`repro.core.fptas._dp_rows`), so the float operations — and hence
winner sets, verdicts, and critical bids — are identical.  The pinning
property tests live in ``tests/perf/test_single_pricer.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.critical import DEFAULT_TOLERANCE
from repro.core.errors import CriticalBidError, ValidationError
from repro.core.fptas import (
    DEFAULT_EPSILON,
    _EPS,
    _check_dp_cells,
    _dp_rows,
    _reconstruct,
)
from repro.core.obshooks import emit as _emit
from repro.core.obshooks import span as _span
from repro.core.types import SingleTaskInstance
from repro.obs.profiler import EVENT_BREAKDOWN
from repro.obs.progress import Heartbeat

from .instrumentation import PerfCounters

__all__ = ["SingleTaskPricer", "critical_contribution_single_fast"]

#: Prefix DP snapshots (value row + decision bits per subproblem) are kept
#: only while their total size stays below this many cells; beyond it the
#: pricer falls back to recomputing full subproblems per probe.
DEFAULT_SNAPSHOT_CELLS = 64_000_000


class SingleTaskPricer:
    """Prices single-task winners with memoized, prefix-reused FPTAS probes.

    Args:
        instance: The declared single-task instance.
        epsilon: FPTAS approximation parameter (must match the one used for
            the real allocation, as in the reference search).
        tolerance: Absolute stopping tolerance of the binary search.
        counters: Optional shared :class:`PerfCounters`.
        snapshot_cells: Memory budget (in DP cells) for prefix snapshots.
        tracer: Optional duck-typed :class:`repro.obs.tracing.Tracer`; when
            set, every ``wins(q)`` probe is recorded as a ``critical.probe``
            audit event (with ``cached=True`` when the monotone memo
            answered it without an FPTAS run).

    Unlike the reference function this pricer always prices against the
    FPTAS (no ``allocator`` override); use the reference for custom
    allocators.
    """

    def __init__(
        self,
        instance: SingleTaskInstance,
        epsilon: float = DEFAULT_EPSILON,
        tolerance: float = DEFAULT_TOLERANCE,
        counters: PerfCounters | None = None,
        snapshot_cells: int = DEFAULT_SNAPSHOT_CELLS,
        tracer=None,
    ):
        if epsilon <= 0 or not math.isfinite(epsilon):
            raise ValidationError(f"epsilon must be positive and finite, got {epsilon!r}")
        self.instance = instance
        self.epsilon = float(epsilon)
        self.tolerance = tolerance
        self.counters = counters if counters is not None else PerfCounters()
        self.tracer = tracer
        self._probe_seconds = 0.0  # accumulated by _wins under a tracer

        n = instance.n_users
        self._n = n
        self._order = sorted(
            range(n), key=lambda i: (instance.costs[i], instance.user_ids[i])
        )
        self._costs = np.array([instance.costs[i] for i in self._order], dtype=float)
        self._base_contribs = np.array(
            [instance.contributions[i] for i in self._order], dtype=float
        )
        self._sorted_uids = tuple(instance.user_ids[i] for i in self._order)
        self._rank_of = {uid: r for r, uid in enumerate(self._sorted_uids)}

        # Global caches (valid for every probe and every priced user).
        self._scaled_cache: dict[int, tuple[np.ndarray, int]] = {}
        self._static_cache: dict[int, tuple[frozenset[int], int] | None] = {}
        self._static_cells: dict[int, int] = {}
        self._original_selected: frozenset[int] | None = None

        # Prefix snapshots, shared across priced users.  Each entry maps a
        # subproblem size ``k`` to ``(layer, cells, (best, take))``: the DP
        # value row and decision bits after item layers ``[0, layer)`` —
        # all carrying *original* contributions, hence user-independent —
        # and its budget charge.
        self._snapshot_budget = snapshot_cells
        self._prefix_user: int | None = None
        self._prefix: dict[int, tuple[int, int, tuple[np.ndarray, np.ndarray]]] = {}
        self._prefix_cells = 0
        self._win_bound = math.inf
        self._loss_bound = -math.inf

    # ------------------------------------------------------------------ #
    # FPTAS replication with caches
    # ------------------------------------------------------------------ #

    def _scaled(self, k: int) -> tuple[np.ndarray, int]:
        """Integer scaled costs and ``c_max`` for subproblem ``k`` (cached)."""
        cached = self._scaled_cache.get(k)
        if cached is None:
            mu_k = self.epsilon * float(self._costs[k - 1]) / k
            ints = np.floor(self._costs[:k] / mu_k).astype(np.int64)
            cached = (ints, int(ints.sum()))
            self._scaled_cache[k] = cached
        return cached

    def _solve_static(self, k: int) -> tuple[frozenset[int], int] | None:
        """Subproblem ``k`` over the original contributions (cached forever)."""
        if k in self._static_cache:
            self.counters.fptas_subproblems_cached += 1
            self.counters.fptas_dp_cells_reused += self._static_cells[k]
            return self._static_cache[k]
        before = self.counters.fptas_dp_cells
        solved = self._solve_fresh(k, self._base_contribs, 0)
        self._static_cache[k] = solved
        self._static_cells[k] = self.counters.fptas_dp_cells - before
        return solved

    def _solve_fresh(
        self, k: int, contribs: np.ndarray, rank: int
    ) -> tuple[frozenset[int], int] | None:
        """Run subproblem ``k`` in full, snapshotting the prefix if it fits."""
        ints, c_max = self._scaled(k)
        _check_dp_cells(k, c_max)
        self.counters.fptas_subproblems += 1
        best = np.full(c_max + 1, -np.inf)
        best[0] = 0.0
        take = np.zeros((k, c_max + 1), dtype=bool)
        if 0 < rank < k:
            _dp_rows(best, take, ints, contribs, 0, rank, counters=self.counters)
            cells = k * (c_max + 1)
            if self._prefix_cells + cells <= self._snapshot_budget:
                self._prefix[k] = (rank, cells, (best.copy(), take))
                self._prefix_cells += cells
            _dp_rows(best, take, ints, contribs, rank, k, counters=self.counters)
        else:
            _dp_rows(best, take, ints, contribs, 0, k, counters=self.counters)
        return self._finish(k, ints, best, take)

    def _solve_dynamic(
        self, k: int, contribs: np.ndarray, rank: int
    ) -> tuple[frozenset[int], int] | None:
        """Subproblem ``k > rank``: resume from the prefix snapshot if present.

        The snapshot's layer ``m`` satisfies ``m <= rank`` (deeper snapshots
        were dropped by :meth:`_reset_user`).  When ``m < rank`` — the first
        probe of a later-ranked user resuming a predecessor's snapshot —
        layers ``[m, rank)`` carry original contributions only, so the
        advance ``m → rank`` performs exactly the per-layer operations a
        fresh run would, the snapshot is replaced at ``rank``, and the probe
        continues ``rank → k``: bit-identical to an uninterrupted run.
        """
        entry = self._prefix.get(k)
        if entry is None:
            return self._solve_fresh(k, contribs, rank)
        layer, cells, (prefix_best, take) = entry
        ints, c_max = self._scaled(k)
        self.counters.fptas_subproblems += 1
        best = prefix_best.copy()
        self.counters.fptas_dp_cells_reused += layer * (c_max + 1)
        if layer < rank:
            # Advance the shared snapshot to the new user's rank; the take
            # rows [layer, rank) are rewritten with the same values a fresh
            # run would produce (original contributions below rank).
            _dp_rows(best, take, ints, contribs, layer, rank, counters=self.counters)
            self._prefix[k] = (rank, cells, (best.copy(), take))
        # Layers [rank, k) are rewritten in full below; layers [0, rank)
        # keep their decision bits from the snapshot run.
        _dp_rows(best, take, ints, contribs, rank, k, counters=self.counters)
        return self._finish(k, ints, best, take)

    def _finish(
        self, k: int, ints: np.ndarray, best: np.ndarray, take: np.ndarray
    ) -> tuple[frozenset[int], int] | None:
        feasible = np.flatnonzero(best >= self.instance.requirement - _EPS)
        if feasible.size == 0:
            return None
        target = int(feasible[0])
        return frozenset(_reconstruct(take, ints, target)), target

    def _allocate(self, rank: int, q: float) -> frozenset[int] | None:
        """``fptas_min_knapsack(instance.with_contribution(uid, q), ε).selected``,
        bit-identically, or ``None`` when the modified instance is infeasible.
        """
        instance = self.instance
        at_declared = q == float(self._base_contribs[rank])
        if at_declared and self._original_selected is not None:
            self.counters.wins_cache_hits += 1
            return self._original_selected

        if instance.requirement <= _EPS:
            return frozenset()
        # Feasibility check identical to SingleTaskInstance.is_feasible():
        # a python sum over the contribution tuple in original user order.
        orig_idx = self._order[rank]
        total = 0.0
        for i, contribution in enumerate(instance.contributions):
            total += q if i == orig_idx else contribution
        if not (total >= instance.requirement - 1e-12):
            return None

        if at_declared:
            contribs = self._base_contribs
        else:
            contribs = self._base_contribs.copy()
            contribs[rank] = q
        prefix = np.cumsum(contribs)
        first_k = int(np.searchsorted(prefix, instance.requirement - _EPS) + 1)

        best_cost = math.inf
        best_items: frozenset[int] | None = None
        for k in range(first_k, self._n + 1):
            if rank >= k:
                solved = self._solve_static(k)
            else:
                solved = self._solve_dynamic(k, contribs, rank)
            if solved is None:
                continue
            items, _scaled_cost = solved
            # Compare subproblems by ACTUAL cost; the paper's '<=' tie rule
            # is kept: later subproblems win exact ties.
            real_cost = float(self._costs[list(items)].sum())
            if real_cost <= best_cost + _EPS:
                best_cost = real_cost
                best_items = items
        assert best_items is not None, "at least one subproblem is feasible"
        selected = frozenset(self._sorted_uids[i] for i in best_items)
        if at_declared:
            self._original_selected = selected
        return selected

    # ------------------------------------------------------------------ #
    # Memoized monotone search
    # ------------------------------------------------------------------ #

    def _reset_user(self, user_id: int, rank: int) -> None:
        if self._prefix_user != user_id:
            self._prefix_user = user_id
            # Prefix layers carry original contributions only, so snapshots
            # at a layer <= the new user's rank stay valid (and are advanced
            # in place by _solve_dynamic); deeper snapshots include layer
            # ``rank`` itself, which the new user's probes modify, so drop.
            stale = [k for k, (layer, _, _) in self._prefix.items() if layer > rank]
            for k in stale:
                self._prefix_cells -= self._prefix[k][1]
                del self._prefix[k]
            self._win_bound = math.inf
            self._loss_bound = -math.inf

    def _wins(self, user_id: int, rank: int, contribution: float) -> bool:
        """Memoized ``wins(q)``: Lemma-1 monotonicity short-circuits probes."""
        self.counters.wins_evaluations += 1
        if contribution >= self._win_bound:
            self.counters.wins_cache_hits += 1
            self._trace_probe(user_id, contribution, won=True, cached=True)
            return True
        if contribution <= self._loss_bound:
            self.counters.wins_cache_hits += 1
            self._trace_probe(user_id, contribution, won=False, cached=True)
            return False
        t0 = time.perf_counter() if self.tracer is not None else 0.0
        selected = self._allocate(rank, contribution)
        if self.tracer is not None:
            self._probe_seconds += time.perf_counter() - t0
        won = selected is not None and user_id in selected
        if won:
            self._win_bound = min(self._win_bound, contribution)
        else:
            self._loss_bound = max(self._loss_bound, contribution)
        self._trace_probe(user_id, contribution, won=won, cached=False)
        return won

    def _trace_probe(
        self, user_id: int, contribution: float, won: bool, cached: bool
    ) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "critical.probe",
                user_id=user_id,
                value=float(contribution),
                won=won,
                cached=cached,
            )

    def critical(self, user_id: int) -> float:
        """Critical contribution of ``user_id``; mirrors
        :func:`repro.core.critical.critical_contribution_single` probe by
        probe (identical bisection arithmetic, identical verdicts).

        With a tracer attached the search runs inside a ``counterfactual``
        span (matching :meth:`repro.perf.batch_pricer.BatchPricer.price`)
        and emits a ``profile.breakdown`` event splitting its self time
        into ``fptas_probe`` (time inside uncached FPTAS allocations) vs
        ``bisection_overhead`` (memo lookups plus search bookkeeping).

        Raises:
            CriticalBidError: If the user does not win at her declared
                contribution.
        """
        with _span(self.tracer, "counterfactual", user_id=user_id):
            t_start = time.perf_counter() if self.tracer is not None else 0.0
            self._probe_seconds = 0.0
            try:
                return self._critical_inner(user_id)
            finally:
                if self.tracer is not None:
                    total = time.perf_counter() - t_start
                    _emit(
                        self.tracer,
                        EVENT_BREAKDOWN,
                        parts={
                            "fptas_probe": self._probe_seconds,
                            "bisection_overhead": max(
                                0.0, total - self._probe_seconds
                            ),
                        },
                    )

    def _critical_inner(self, user_id: int) -> float:
        rank = self._rank_of[user_id]
        self._reset_user(user_id, rank)
        declared = self.instance.contributions[self.instance.index_of(user_id)]
        if not self._wins(user_id, rank, declared):
            raise CriticalBidError(
                f"user {user_id} does not win at the declared contribution {declared:.6g}"
            )
        if self._wins(user_id, rank, 0.0):
            # The user wins even contributing nothing; the boundary is at zero.
            return 0.0

        low, high = 0.0, max(self.instance.requirement, declared)
        # By monotonicity (Lemma 1), wins(high) holds because high >= declared.
        while high - low > self.tolerance:
            mid = 0.5 * (low + high)
            if self._wins(user_id, rank, mid):
                high = mid
            else:
                low = mid
        return high

    def price_all(self, user_ids) -> dict[int, float]:
        """Critical contributions for a set of winners, keyed in ascending id
        order (the order :class:`repro.core.single_task.SingleTaskMechanism`
        uses).

        Internally winners are priced in ascending *rank* order (by ``(cost,
        user_id)``) so each user's first probe resumes — and advances — the
        previous user's prefix snapshots instead of rebuilding them from
        layer zero (see the class docstring).  Pricing order cannot change
        any price: every probe is bit-identical to an uninterrupted run.

        With a tracer attached, a throttled ``pricing.progress`` heartbeat
        reports done/total/rate/ETA across the winners.
        """
        ordered = sorted(user_ids)
        beat = (
            Heartbeat(
                "pricing",
                total=len(ordered),
                tracer=self.tracer,
                mechanism="single_task",
            )
            if self.tracer is not None and ordered
            else None
        )
        if beat is not None:
            beat.begin()
        computed = {}
        for uid in sorted(ordered, key=lambda u: self._rank_of[u]):
            computed[uid] = self.critical(uid)
            if beat is not None:
                beat.update()
        if beat is not None:
            beat.finish()
        return {uid: computed[uid] for uid in ordered}


def critical_contribution_single_fast(
    instance: SingleTaskInstance,
    user_id: int,
    epsilon: float = DEFAULT_EPSILON,
    tolerance: float = DEFAULT_TOLERANCE,
    counters: PerfCounters | None = None,
) -> float:
    """One-shot convenience wrapper around :class:`SingleTaskPricer`.

    For pricing several winners of the same instance, build one pricer and
    call :meth:`SingleTaskPricer.critical` repeatedly — the static
    subproblem and original-allocation caches then carry across winners.
    """
    return SingleTaskPricer(
        instance, epsilon=epsilon, tolerance=tolerance, counters=counters
    ).critical(user_id)
