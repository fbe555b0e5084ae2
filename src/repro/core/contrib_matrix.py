"""Sparse per-task contribution matrix for the CSR greedy (Algorithm 4).

Algorithm 4's hot quantity is the capped gain ``Σ_j min{q_i^j, Q̄_j}``.
The dense oracle ``greedy_allocation_dense`` materialises an ``n × t``
matrix and rescans all of it every iteration; :class:`ContributionMatrix`
stores only the ``nnz`` declared (user, task) contributions in CSR form
plus a CSC-style task→rows index, so the CSR greedy can

* recompute gains for an arbitrary *subset* of rows (the ones whose gain
  could have changed),
* apply a winner's residual update in place, touching only her columns
  (:meth:`subtract_row`), and
* enumerate exactly the rows whose gain that update can change (the rows
  sharing a still-open task with the winner).

**Float parity contract.**  :meth:`gains` must produce bit-identical
values to the dense oracle's ``np.minimum(contrib[rows], residual).sum(
axis=1)``.  numpy's pairwise summation tree depends only on the reduced
axis length, so summing a *scattered* dense row of the same width ``t``
(explicit zeros where the user declares nothing — ``min(0, Q̄_j) = 0``
regardless of the residual) reduces the very same floats through the very
same tree.  Gains are therefore computed by scattering row chunks into a
bounded ``chunk × t`` scratch buffer and reducing along axis 1 — never by
summing only the nonzeros, whose shorter reduction tree can differ in the
last ulp.  The scratch bound is what keeps peak memory flat at
``n = 10^5``: the full dense matrix would be ``n·t`` floats (800 MB at
100k × 1k) while the scratch stays a few MB regardless of ``n``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .transforms import MAX_POS
from .types import UserType

__all__ = ["ContributionMatrix", "DEFAULT_SCRATCH_CELLS"]

#: Upper bound on the scatter scratch buffer (rows × tasks floats); 4M
#: cells = 32 MB.  Gains for larger row sets are computed chunk by chunk.
DEFAULT_SCRATCH_CELLS = 4_000_000


def _flat_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[arange(s, s+c) for s, c in zip(starts, counts)]``.

    The standard cumsum trick: start from ones, rewrite each segment's
    first element so the running sum jumps to that segment's start.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nonzero = counts > 0
    if not nonzero.all():
        starts, counts = starts[nonzero], counts[nonzero]
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if len(starts) > 1:
        ends = np.cumsum(counts)
        # The running sum at a segment boundary must jump from the previous
        # segment's last index to the next segment's start.
        out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


class ContributionMatrix:
    """CSR contribution matrix with a task→rows index and gain scratch.

    Rows follow the ascending-user-id order both greedies use; columns are
    task positions (``task_index`` order).  Values are the declared
    contributions ``q_i^j = −ln(1 − p_i^j)``, identical floats to the dense
    oracle's matrix entries.

    Args:
        users: Users in ascending id order (the greedy's row order).
        task_index: Mapping task id → column position.
        n_tasks: Number of columns.
        scratch_cells: Cap on the scatter buffer (rows × ``n_tasks``).
    """

    __slots__ = (
        "n_rows",
        "n_cols",
        "indptr",
        "cols",
        "vals",
        "_csc_indptr",
        "_csc_rows",
        "_csc_vals",
        "_chunk_rows",
        "_buffers",
    )

    def __init__(
        self,
        users: list[UserType],
        task_index: dict[int, int],
        n_tasks: int,
        scratch_cells: int = DEFAULT_SCRATCH_CELLS,
    ):
        n = len(users)
        self.n_rows = n
        self.n_cols = n_tasks
        # Single inlined pass: same floats as ``UserType.contribution`` —
        # the clamp mirrors ``pos_to_contribution`` (PoS is already
        # validated finite and in [0, 1] by UserType), and ``math.log1p``
        # is the scalar transform both greedies must agree on bit-for-bit
        # (np.log1p can differ in the last ulp, so it is off-limits here).
        counts = np.empty(n, dtype=np.int64)
        cols_list: list[int] = []
        vals_list: list[float] = []
        get_col = task_index.get
        log1p = math.log1p
        for row, u in enumerate(users):
            c = 0
            for tid, p in u.pos.items():
                j = get_col(tid)
                if j is None:
                    continue
                cols_list.append(j)
                vals_list.append(-log1p(-(p if p <= MAX_POS else MAX_POS)))
                c += 1
            counts[row] = c
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.cols = np.asarray(cols_list, dtype=np.int64)
        self.vals = np.asarray(vals_list, dtype=np.float64)

        # CSC-style index: rows per task column, built from a stable sort of
        # the column ids so each column's row list stays ascending.
        row_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.argsort(self.cols, kind="stable")
        self._csc_rows = row_ids[order]
        self._csc_vals = self.vals[order]
        self._csc_indptr = np.zeros(n_tasks + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cols, minlength=n_tasks), out=self._csc_indptr[1:])

        self._chunk_rows = max(1, scratch_cells // max(1, n_tasks))
        # Scratch blocks are per-thread so the batch pricer's thread
        # fan-out can share one matrix without locking.
        self._buffers = threading.local()

    def _scratch(self) -> np.ndarray:
        """This thread's zeroed scatter block, lazily created."""
        loc = self._buffers
        scratch = getattr(loc, "scratch", None)
        if scratch is None:
            scratch = np.zeros(
                (min(self._chunk_rows, max(1, self.n_rows)), self.n_cols)
            )
            loc.scratch = scratch
        return scratch

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR/CSC arrays plus one thread's scratch block."""
        scratch_cells = min(self._chunk_rows, max(1, self.n_rows)) * self.n_cols
        return int(
            self.indptr.nbytes
            + self.cols.nbytes
            + self.vals.nbytes
            + self._csc_indptr.nbytes
            + self._csc_rows.nbytes
            + self._csc_vals.nbytes
            + 8 * scratch_cells
        )

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    def row_cols(self, row: int) -> np.ndarray:
        """Column positions the row contributes to (view, do not mutate)."""
        return self.cols[self.indptr[row] : self.indptr[row + 1]]

    def subtract_row(self, row: int, residual: np.ndarray) -> np.ndarray:
        """Algorithm 4's residual update ``Q̄ ← max(0, Q̄ − q_row)``, in place.

        Only the row's own columns are touched: every other entry of the
        dense form is ``max(0, Q̄_j − 0.0) = Q̄_j`` (residuals are never
        negative), so the result is byte-equal to the dense oracle's
        ``np.maximum(0.0, residual - contrib[row])`` at O(nnz of the row).

        Returns the row's columns that were still open (``Q̄_j > 0``)
        before the update — the only tasks whose residual can have moved,
        hence the only ones whose contributors can see a different gain.
        """
        start, stop = self.indptr[row], self.indptr[row + 1]
        cols = self.cols[start:stop]
        before = residual[cols]
        residual[cols] = np.maximum(0.0, before - self.vals[start:stop])
        return cols[before > 0.0]

    # ------------------------------------------------------------------ #
    # Batched gains (chunked scatter)
    # ------------------------------------------------------------------ #

    def gains(self, rows: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """Capped gains for ``rows``, bit-identical to the dense oracle's
        ``np.minimum(contrib[rows], residual[None, :]).sum(axis=1)``.

        Rows are processed in chunks bounded by the scratch buffer, so the
        peak allocation is independent of ``len(rows)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty(len(rows))
        scratch = self._scratch()
        chunk = scratch.shape[0]
        for lo in range(0, len(rows), chunk):
            sel = rows[lo : lo + chunk]
            m = len(sel)
            starts = self.indptr[sel]
            counts = self.indptr[sel + 1] - starts
            idx = _flat_indices(starts, counts)
            local = np.repeat(np.arange(m, dtype=np.int64), counts)
            block = scratch[:m]
            scattered = (local, self.cols[idx])
            block[scattered] = self.vals[idx]
            # In-place minimum: non-scattered cells stay min(0, Q̄_j) = 0
            # (residuals are clamped ≥ 0 by the kernels), and the restore
            # below is positional, so overwriting the scattered values is
            # fine.  Same array shape/layout as the out-of-place temp →
            # same pairwise reduction tree → bit-identical gains, minus a
            # chunk-sized allocation per call.
            np.minimum(block, residual[None, :], out=block)
            block.sum(axis=1, out=out[lo : lo + m])
            block[scattered] = 0.0  # restore the zero scratch
        return out

    # ------------------------------------------------------------------ #
    # Affected-row lookup
    # ------------------------------------------------------------------ #

    def rows_touching(self, task_cols: np.ndarray) -> np.ndarray:
        """Sorted unique rows contributing to any of ``task_cols``."""
        task_cols = np.asarray(task_cols, dtype=np.int64)
        if task_cols.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._csc_indptr[task_cols]
        counts = self._csc_indptr[task_cols + 1] - starts
        idx = _flat_indices(starts, counts)
        return np.unique(self._csc_rows[idx])

    def column_supply(
        self, task_cols: np.ndarray, alive: np.ndarray, min_val: float = 0.0
    ) -> np.ndarray:
        """Per-column eligible supply: ``Σ vals`` over alive rows per column.

        For each column ``j`` in ``task_cols``, sums the contributions
        ``q_u^j`` of rows with ``alive[u]`` true and ``q_u^j > min_val``.
        The batch pricer's early-exit certificate uses this to prove the
        remaining replay can still satisfy every open task (see
        :meth:`repro.perf.batch_pricer.BatchPricer` for the argument); the
        sum is a plain accumulation, *not* part of the bit-parity contract —
        it only feeds a conservative ``≥`` comparison.

        Cost is O(nnz of the requested columns).
        """
        task_cols = np.asarray(task_cols, dtype=np.int64)
        if task_cols.size == 0:
            return np.empty(0)
        starts = self._csc_indptr[task_cols]
        counts = self._csc_indptr[task_cols + 1] - starts
        idx = _flat_indices(starts, counts)
        rows = self._csc_rows[idx]
        vals = self._csc_vals[idx]
        segment = np.repeat(np.arange(len(task_cols), dtype=np.int64), counts)
        mask = alive[rows] & (vals > min_val)
        return np.bincount(
            segment[mask], weights=vals[mask], minlength=len(task_cols)
        )
