"""Batch counterfactual pricing for the multi-task mechanism (Algorithm 5).

The reference reward scheme reruns the full greedy (Algorithm 4) once per
winner on ``instance.without_user(i)`` — a fresh object copy, a fresh
contribution matrix, and a full O(n²t) loop each time.  :class:`BatchPricer`
exploits the **shared-prefix invariant** instead:

    When pricing winner ``i``, the greedy run without ``i`` selects exactly
    the same users, in the same order, with the same residuals, as the
    original run — up to the iteration where ``i`` was first selected.
    Before that point ``i`` was present but never chosen, and the selection
    rule only compares the *chosen* row against the rest, so deleting a
    never-chosen row cannot change any earlier decision.

So the counterfactual trace for winner ``i`` is ``original_iterations[:m_i]``
(shared, already computed) plus a replay resumed from a snapshot of the
residual vector and active set taken just before iteration ``m_i``.  For a
*loser* the counterfactual trace is the original trace verbatim and no
replay runs at all.

The replay itself is a **lazy greedy** (Minoux's accelerated greedy):
capped gains ``Σ_j min{q_i^j, Q̄_j}`` are monotone non-increasing as the
residuals shrink, so a ratio computed at any earlier point is a valid upper
bound on a row's current ratio.  Each iteration pops the largest stale
bound from a max-heap, recomputes just that one row (O(t) instead of
O(n·t)), and selects it once its *fresh* ratio beats the next stale bound
by more than ``ε`` — which certifies it is the unique ``ε``-margin argmax
the reference rule would pick.  When the fresh top is within ``ε`` of the
next bound, the replay falls back to the full vectorised scan with the
reference tie-chain (:func:`repro.core.greedy.select_best_row`), so
ε-level ratio ties resolve exactly as in ``greedy_allocation``.

The master run is Algorithm 4 itself: the pricer drives the CSR loop of
:mod:`repro.core.greedy` (the one :func:`~repro.core.greedy.greedy_allocation`
runs) step by step, adding only what pricing needs between steps — the
residual vector before each iteration and periodic ratio-heap checkpoints.
All winners are then priced against that loop's contribution matrix and
cost vector, built once per instance — no per-winner ``AuctionInstance``
copies, and per-row gains are bit-identical to the matrix row sums (same
values, same within-row reduction order).  The pinning property tests
(``tests/perf/test_batch_pricer.py``) cross-check the fast path against
full reruns, including on hypothesis-generated adversarial instances.

Three further levers stack on the lazy replay, each individually
parity-gated (none of them moves a float the reference would produce):

1. **Batched gain recomputes** — when the replay pops a stale heap entry
   it gathers the run of stale entries behind it (up to 64) and refreshes
   them through one :meth:`ContributionMatrix.gains` scatter call, then
   pushes the exact ratios back and re-pops.  The selection certificate
   ("fresh ratio beats every other bound by more than ε") is
   order-independent — it identifies the unique ε-margin argmax no matter
   which rows were refreshed first — and the within-ε case still falls
   back to the literal reference scan, so the selected iterations are
   bit-identical; batching only changes how many numpy calls the
   refreshes cost.

2. **Multi-core fan-out** — :meth:`price_all` takes its worker count
   from the ``max_workers=`` keyword (a count, or ``"auto"`` / ``None``
   for a cpu heuristic; :func:`repro.core.kernels.resolve_price_workers`)
   and fans winners out across threads (numpy releases the GIL in the
   wide reductions).  Replays are independent, so any partition of
   winners yields the same prices; per-worker :class:`PerfCounters`
   merge back in deterministic order.

3. **Sound early exit** (on exactly when ``method="threshold"``) — a
   replay may stop before the residuals are satisfied once continuing
   provably cannot change the price.  The criterion and its proof:

   * *(a) the priced user's tasks are exhausted:* every column of user
     ``i``'s bundle has replay residual exactly ``0.0`` (the update clamps
     at zero and residuals never grow).  Every **omitted** iteration ``m``
     would then carry ``residual_before`` with ``R_j = 0`` on all of
     ``i``'s tasks, so ``_min_scale_for_gain`` has no positive rates and
     returns ``None`` — unless its ``required_gain <= 1e-15`` fast path
     fires, which condition (b) excludes.
   * *(b) cost floor:* ``c_i · ε > 1e-15 · max_cost`` (ε = 1e-12).  Every
     selected iteration has gain > ε and cost ≤ max_cost, so every omitted
     candidate's ``required_gain = c_i · gain_m / c_m`` exceeds ``1e-15``
     and the unsound corner cannot fire.  When the floor fails (a
     pathologically cheap priced user), the exit stays off for that replay.
   * *(c) satisfaction certificate:* for every still-open task ``j``
     (``R_j > ε``), the eligible supply ``Σ {q_u^j : u alive, q_u^j > ε}``
     covers ``R_j`` with a ``1e-9``-relative margin.  Any alive user with
     ``q_u^j > ε`` on an open ``j`` has capped gain ``≥ min(q_u^j, R_j) >
     ε`` (a full-width float sum of non-negatives cannot round below its
     largest term), so the continued greedy can never stall while ``j`` is
     open and contributors remain; once all of ``j``'s contributors are
     selected, ``R_j ≤ R_j - supply_j + float drift < 0`` clamps to zero.
     Hence the continuation terminates with ``satisfied=True`` — exactly
     what the truncated replay reports.  When the certificate fails the
     replay simply runs on (always sound).

   Omitted iterations therefore contribute no candidate to the threshold
   price and the ``satisfied`` flag is unchanged — the truncated trace
   prices bit-identically.  ``method="paper"`` takes the min over *all*
   iterations (every omitted iteration is a live candidate), so the exit
   is structurally unsound there and never arms.
"""

from __future__ import annotations

import bisect
import heapq
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.critical import price_from_iterations
from repro.core.errors import ValidationError
from repro.core.greedy import GreedyIteration, _CsrGreedy, select_best_row
from repro.core.kernels import resolve_price_workers
from repro.core.obshooks import emit as _emit
from repro.core.obshooks import span as _span
from repro.core.types import AuctionInstance
from repro.obs.profiler import EVENT_BREAKDOWN
from repro.obs.progress import Heartbeat

from .instrumentation import PerfCounters

__all__ = ["BatchPricer"]

_EPS = 1e-12

#: Stale heap entries refreshed per batched
#: :meth:`ContributionMatrix.gains` call inside a replay (lever 1).
_GAIN_BATCH = 64

#: An auto-resolved (heuristic) worker count only engages fan-out when the
#: auction has at least this many winners; below it, pool startup costs
#: more than the replays.  An explicitly requested count always fans out.
_AUTO_FANOUT_MIN_WINNERS = 32

#: After a failed early-exit certificate, re-check only once this many
#: further iterations have run (open tasks may since have closed, which can
#: make a previously failing certificate pass).
_EXIT_RECHECK_STRIDE = 32

#: The master run checkpoints its ratio heap every this many iterations at
#: first; past _MAX_CKPTS checkpoints the stride doubles and every other
#: checkpoint is dropped, so at most ~2·_MAX_CKPTS heaps ever exist.
_CKPT_STRIDE = 32
_MAX_CKPTS = 16


class _ResidualView:
    """Read-only mapping view of a residual vector (supports ``.get`` only).

    ``price_from_iterations`` reads ``residual_before`` exclusively through
    ``.get(task_id, 0.0)``; backing it with the O(t) vector copy instead of
    building a per-iteration dict keeps counterfactual iterations cheap.
    Values are identical to the dict snapshot's: satisfied tasks hold an
    exact ``0.0`` (the residual update clamps at zero).
    """

    __slots__ = ("_residual", "_index")

    def __init__(self, residual: np.ndarray, index: dict[int, int]):
        self._residual = residual
        self._index = index

    def get(self, task_id: int, default: float = 0.0) -> float:
        k = self._index.get(task_id)
        if k is None:
            return default
        return float(self._residual[k])


class BatchPricer:
    """Prices every winner of one multi-task instance via prefix-reused replay.

    Construction runs the (instrumented) greedy once, recording a residual
    snapshot per iteration; :meth:`price` then resumes from the snapshot at
    the priced user's selection point, and :meth:`price_all` prices every
    winner, optionally fanning out across threads (the replay only touches
    shared read-only arrays plus per-call copies, so it is thread-safe).

    Critical bids are bit-identical to
    :func:`repro.core.critical.critical_contribution_multi` — the replay
    performs the same float operations on the same values, and the final
    pricing arithmetic is literally the same function
    (:func:`repro.core.critical.price_from_iterations`).

    Args:
        instance: The declared multi-task instance.
        method: ``"threshold"`` (default) or ``"paper"`` — same meaning as
            in :func:`critical_contribution_multi`.  Replays take the early
            exit (module docstring, lever 3) exactly under
            ``"threshold"``: ``"paper"`` mins over *all* iterations, so
            truncating a replay would change its price.
        counters: Optional shared :class:`PerfCounters`; a private one is
            created otherwise (exposed as ``.counters``).
        require_feasible: Passed to the master greedy run; ``True`` raises
            :class:`InfeasibleInstanceError` when requirements cannot be met.
        tracer: Optional duck-typed :class:`repro.obs.tracing.Tracer`.  The
            master run records ``greedy.select`` audit events; each
            :meth:`price` call records a ``counterfactual`` span and an
            ``audit.counterfactual`` event (prefix reused, suffix replayed,
            resulting critical bid).  Replay-internal iterations are *not*
            traced per-decision — they are summarised by the event — so
            audit mode stays usable at benchmark sizes.
    """

    def __init__(
        self,
        instance: AuctionInstance,
        method: str = "threshold",
        counters: PerfCounters | None = None,
        require_feasible: bool = True,
        tracer=None,
    ):
        if method not in ("threshold", "paper"):
            raise ValidationError(f"unknown critical-bid method {method!r}")
        self.instance = instance
        self.method = method
        self.counters = counters if counters is not None else PerfCounters()
        self.tracer = tracer

        # The master run: Algorithm 4's own loop, plus the residual before
        # each iteration and heapified (-ratio, row) bound templates taken
        # every ``stride`` iterations.  Each replay copies the latest
        # template at or before its start (an O(n) pointer memcpy) instead
        # of rebuilding n tuples per winner, and gets bounds at most
        # ``stride`` iterations stale — loose seeds are *correct* (capped
        # gains only shrink) but cost pop-and-recompute rounds, so
        # freshness is pure speed.
        greedy = _CsrGreedy(instance, self.counters, tracer)
        n = len(greedy.uids)
        self._ckpt_starts: list[int] = []
        self._ckpt_heaps: list[list] = []
        snapshots: list[np.ndarray] = []
        stride = _CKPT_STRIDE
        while greedy.is_open():
            it = len(greedy.selected_rows)
            if it % stride == 0:
                template = list(zip((-greedy.ratios).tolist(), range(n)))
                heapq.heapify(template)
                self._ckpt_starts.append(it)
                self._ckpt_heaps.append(template)
                if len(self._ckpt_starts) > _MAX_CKPTS:
                    stride *= 2
                    keep = [
                        k
                        for k, ckpt in enumerate(self._ckpt_starts)
                        if ckpt % stride == 0
                    ]
                    self._ckpt_starts = [self._ckpt_starts[k] for k in keep]
                    self._ckpt_heaps = [self._ckpt_heaps[k] for k in keep]
            residual_before = greedy.residual.copy()
            if not greedy.step(require_feasible):
                break
            snapshots.append(residual_before)

        self._greedy = greedy
        self._snapshots = snapshots
        self._row_of = {uid: row for row, uid in enumerate(greedy.uids)}
        self._position = {
            greedy.uids[row]: m for m, row in enumerate(greedy.selected_rows)
        }
        # Conservative bound for the early-exit cost floor: every
        # counterfactual iteration's winner cost is ≤ this.
        self._max_cost = float(greedy.costs.max()) if n else 0.0
        self.trace = greedy.trace()

    @property
    def early_exit(self) -> bool:
        """Whether replays may stop at the exit certificate: exactly when
        ``method="threshold"`` (module docstring, lever 3)."""
        return self.method == "threshold"

    # ------------------------------------------------------------------ #
    # Counterfactual replay
    # ------------------------------------------------------------------ #

    def _replay(
        self,
        start: int,
        excluded_row: int,
        counters: PerfCounters,
        breakdown: dict[str, float] | None = None,
    ) -> tuple[tuple[GreedyIteration, ...], bool]:
        """Resume the greedy from iteration ``start`` with one row removed.

        Lazy-greedy loop: the heap holds ``(-ratio_bound, row)`` where the
        bound is the row's ratio at some earlier residual — an upper bound
        on its current ratio because capped gains only shrink.  A popped row
        whose *fresh* ratio beats the next bound by more than ``ε`` is the
        unique ε-margin argmax, so the reference scan would select it too;
        anything closer goes through the full reference tie-chain.  A row
        whose fresh gain drops to ``≤ ε`` can never become eligible again
        and leaves the heap for good.

        The heap is seeded from the latest *checkpointed* master ratios at
        or before ``start`` rather than the snapshot-time ones (the master
        does not keep per-iteration ratio copies).  Any earlier ratio is a
        valid upper bound, and the selection certificate identifies the
        unique ε-margin argmax regardless of how loose the bounds are, so
        the replayed iterations stay bit-identical; staler seeds only cost
        extra pop-and-recompute rounds.

        The heap starts as a copy of the checkpoint's pre-heapified
        template over *all* rows; rows dead at this snapshot (the selected
        prefix and the excluded user) are dropped when popped.  A dead row
        sitting at the heap top can only inflate ``next_bound``, which
        makes the certificate *more* conservative — never a wrong
        selection.

        Stale entries are refreshed up to 64 at a time: the popped stale
        row plus the run of stale entries at the heap top go through one
        batched :meth:`ContributionMatrix.gains` call, re-enter the heap at
        their exact ratios, and the loop re-pops.  Selection still happens
        only through the ε-margin certificate or the reference fallback
        scan, both of which are independent of refresh order, so the
        replayed iterations do not change (see the module docstring,
        lever 1).

        When :attr:`early_exit` is on (``method="threshold"``), the
        loop stops as soon as the priced user's tasks are all exactly
        covered, the cost floor holds, and the satisfaction certificate
        (:meth:`_exit_certificate`) proves the continuation would end
        satisfied — the omitted iterations provably cannot contribute a
        price candidate (module docstring, lever 3).

        ``breakdown`` (audit mode only — ``price`` passes it when a tracer
        is attached) accumulates per-section seconds: ``gain_recompute``
        vs ``heap_maintenance`` vs ``residual_update`` vs ``exit_check``
        (time spent evaluating the certificate).
        """
        clock = time.perf_counter if breakdown is not None else None
        residual = self._snapshots[start].copy()
        greedy = self._greedy
        matrix = greedy.matrix
        costs = greedy.costs
        n = len(greedy.uids)
        alive = np.ones(n, dtype=bool)
        alive[greedy.selected_rows[:start]] = False
        alive[excluded_row] = False
        ckpt = bisect.bisect_right(self._ckpt_starts, start) - 1
        heap = self._ckpt_heaps[ckpt].copy()
        # A row's recomputed gain stays the *exact* reference float until a
        # selection touches one of its still-open tasks (untouched residual
        # entries ⇒ an identical full-width reduction), so cache it and
        # only invalidate the rows_touching set after each selection.
        # Without this, every near-tied contender row would be recomputed
        # every iteration.
        clean = np.zeros(n, dtype=bool)
        cached_gain = np.empty(n)
        iterations: list[GreedyIteration] = []
        executed = 0
        fallback = object()
        # Early-exit arming: condition (b), the cost floor, is a per-replay
        # constant — every omitted candidate's required_gain then clears
        # the 1e-15 pricing corner (module docstring).
        own_cols = matrix.row_cols(excluded_row)
        exit_armed = (
            self.early_exit
            and own_cols.size > 0
            and costs[excluded_row] * _EPS > 1e-15 * self._max_cost
        )
        own_covered = False
        next_cert_at = 0

        while residual.max() > _EPS:
            executed += 1
            sel: object = None
            loop_start = clock() if clock else 0.0
            gain_seconds = 0.0
            while heap:
                neg_bound, row = heapq.heappop(heap)
                if not alive[row]:
                    continue
                if not clean[row]:
                    t0 = clock() if clock else 0.0
                    # Gather the run of stale alive entries at the top
                    # (dead ones are dropped in passing; a clean one ends
                    # the run — it is already exact).
                    batch = [row]
                    while heap and len(batch) < _GAIN_BATCH:
                        r2 = heap[0][1]
                        if not alive[r2]:
                            heapq.heappop(heap)
                        elif clean[r2]:
                            break
                        else:
                            heapq.heappop(heap)
                            batch.append(r2)
                    rows_arr = np.asarray(batch, dtype=np.int64)
                    fresh = matrix.gains(rows_arr, residual)
                    cached_gain[rows_arr] = fresh
                    clean[rows_arr] = True
                    counters.greedy_rows_recomputed += len(batch)
                    if clock:
                        gain_seconds += clock() - t0
                    # Re-enter at exact ratios; rows whose gain fell to
                    # ≤ ε can never become eligible again.
                    for r2, g in zip(batch, fresh):
                        if g > _EPS:
                            heapq.heappush(heap, (-g / costs[r2], r2))
                    continue
                gain = cached_gain[row]
                if gain <= _EPS:
                    continue  # gains only shrink: permanently ineligible
                ratio = gain / costs[row]
                next_bound = -heap[0][0] if heap else -np.inf
                if ratio > next_bound + _EPS:
                    sel = (row, gain, ratio)
                    break
                if ratio >= next_bound:
                    # Fresh top within ε of the next bound: possible ε-tie.
                    heapq.heappush(heap, (-ratio, row))
                    sel = fallback
                    break
                heapq.heappush(heap, (-ratio, row))  # tightened bound
            if clock:
                # Everything in the pop/push loop that wasn't a fresh gain
                # computation is heap maintenance.
                breakdown["gain_recompute"] += gain_seconds
                breakdown["heap_maintenance"] += clock() - loop_start - gain_seconds
            if sel is fallback:
                # Reference scan over all live rows (ascending user id).
                t0 = clock() if clock else 0.0
                live = np.flatnonzero(alive)
                gains = matrix.gains(live, residual)
                ratios = gains / costs[live]
                counters.greedy_rows_recomputed += int(live.size)
                local = select_best_row(gains, ratios)
                if clock:
                    breakdown["gain_recompute"] += clock() - t0
                if local < 0:
                    break
                sel = (int(live[local]), gains[local], ratios[local])
            elif sel is None:
                break  # heap exhausted: no row offers positive gain
            row, gain, ratio = sel
            iterations.append(
                GreedyIteration(
                    user_id=greedy.uids[row],
                    residual_before=_ResidualView(residual.copy(), greedy.task_index),
                    gain=float(gain),
                    ratio=float(ratio),
                    cost=float(costs[row]),
                )
            )
            alive[row] = False
            t0 = clock() if clock else 0.0
            changed = matrix.subtract_row(row, residual)
            if changed.size:
                clean[matrix.rows_touching(changed)] = False
            if clock:
                breakdown["residual_update"] += clock() - t0
            if exit_armed:
                if not own_covered:
                    # Residuals clamp to exact 0.0 and never grow, so once
                    # the priced user's columns read all-zero they stay so.
                    own_covered = not residual[own_cols].any()
                if own_covered and executed >= next_cert_at:
                    t0 = clock() if clock else 0.0
                    certified = self._exit_certificate(residual, alive)
                    if clock:
                        breakdown["exit_check"] += clock() - t0
                    if certified:
                        counters.pricing_early_exits += 1
                        counters.greedy_iterations += executed
                        return tuple(iterations), True
                    next_cert_at = executed + _EXIT_RECHECK_STRIDE

        counters.greedy_iterations += executed
        return tuple(iterations), bool((residual <= _EPS).all())

    def _exit_certificate(self, residual: np.ndarray, alive: np.ndarray) -> bool:
        """Condition (c) of the early exit: can the continuation still
        satisfy every open task?

        Open tasks are those with ``R_j > ε`` (tasks at or below ε already
        count as satisfied by the trace's own criterion).  Requiring the
        eligible supply to clear ``R_j`` with a relative margin keeps the
        certificate conservative against the float drift of the
        continuation's clamped subtractions (bounded by machine epsilon
        per contributor — the 1e-9 margin dwarfs it).  Returns ``False``
        when nothing is open: the loop is about to terminate naturally,
        so claiming an "early" exit would only skew the counters.
        """
        open_cols = np.flatnonzero(residual > _EPS)
        if open_cols.size == 0:
            return False
        supply = self._greedy.matrix.column_supply(open_cols, alive, min_val=_EPS)
        need = residual[open_cols]
        return bool(np.all(supply >= need + 1e-9 * np.maximum(1.0, supply)))

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def price(self, user_id: int, counters: PerfCounters | None = None) -> float:
        """Critical total contribution of one user (winner or loser).

        Bit-identical to ``critical_contribution_multi(instance, user_id,
        method)`` but without rebuilding the instance or rerunning the
        shared prefix.
        """
        counters = counters if counters is not None else self.counters
        user = self.instance.user_by_id(user_id)
        with _span(self.tracer, "counterfactual", user_id=user_id):
            # Audit mode only: split the replay's self time into named
            # parts for the profiler (one point event, no per-part spans).
            breakdown = (
                {
                    "gain_recompute": 0.0,
                    "heap_maintenance": 0.0,
                    "residual_update": 0.0,
                    "exit_check": 0.0,
                }
                if self.tracer is not None
                else None
            )
            if user_id in self._position:
                start = self._position[user_id]
                suffix, satisfied = self._replay(
                    start, self._row_of[user_id], counters, breakdown
                )
                iterations = self.trace.iterations[:start] + suffix
                counters.greedy_prefix_iterations_reused += start
                prefix_reused, suffix_len = start, len(suffix)
            else:
                # A never-selected user cannot change any iteration: the
                # counterfactual trace is the original trace verbatim.
                iterations = self.trace.iterations
                satisfied = self.trace.satisfied
                counters.greedy_prefix_iterations_reused += len(iterations)
                prefix_reused, suffix_len = len(iterations), 0
            counters.counterfactual_runs += 1
            price = price_from_iterations(user, iterations, satisfied, self.method)
            if breakdown is not None and any(breakdown.values()):
                _emit(self.tracer, EVENT_BREAKDOWN, parts=breakdown)
        _emit(
            self.tracer,
            "audit.counterfactual",
            user_id=user_id,
            prefix_reused=prefix_reused,
            suffix_iterations=suffix_len,
            satisfied=satisfied,
            critical=price,
        )
        return price

    def price_all(self, max_workers: int | str | None = None) -> dict[int, float]:
        """Critical bids for every winner, in selection order.

        When a tracer is attached, a throttled ``pricing.progress``
        heartbeat reports done/total, rate, and ETA across the phase —
        this loop is the O(W²) bottleneck at benchmark sizes, and without
        the heartbeat it is a minutes-long silent stall in the event
        stream.  The heartbeat's rate/ETA base clock is re-armed once the
        worker pool is ready (``Heartbeat.begin``), so the reported rate is
        the pricing phase's own throughput, not diluted by pool startup.

        Args:
            max_workers: Thread fan-out across winners: a positive count,
                or ``"auto"`` / ``None`` for a cpu-count heuristic
                (:func:`repro.core.kernels.resolve_price_workers`).  A
                heuristic-resolved count only engages for auctions with at
                least ``32`` winners — pool startup dominates below that —
                while an explicitly requested count always fans out.
                Replays are independent and workers accumulate into
                private counter sets merged back deterministically, so
                prices *and* merged counter totals are identical to a
                sequential run for every worker count.
        """
        winners = self.trace.selected
        spec = resolve_price_workers(max_workers)
        workers = spec.count
        if spec.auto and len(winners) < _AUTO_FANOUT_MIN_WINNERS:
            workers = 1
        workers = min(workers, len(winners)) if winners else 1
        beat = (
            Heartbeat(
                "pricing",
                total=len(winners),
                tracer=self.tracer,
                mechanism="multi_task",
            )
            if self.tracer is not None and winners
            else None
        )
        if workers <= 1:
            if beat is not None:
                beat.begin()
            prices = {}
            for uid in winners:
                prices[uid] = self.price(uid)
                if beat is not None:
                    beat.update()
            if beat is not None:
                beat.finish()
            return prices

        def _price_one(pair: tuple[int, PerfCounters]) -> float:
            result = self.price(pair[0], counters=pair[1])
            if beat is not None:
                beat.update()
            return result

        worker_counters = [PerfCounters() for _ in winners]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            if beat is not None:
                beat.begin()
            prices_list = list(pool.map(_price_one, zip(winners, worker_counters)))
        for wc in worker_counters:
            self.counters.merge(wc)
        if beat is not None:
            beat.finish()
        return dict(zip(winners, prices_list))
