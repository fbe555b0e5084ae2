"""Batched fleet-wide Markov kernels (the vectorized workload engine, layer 1).

The reference :class:`~repro.mobility.markov.MarkovMobilityModel` fits one
taxi at a time: a Python loop builds a ``locations`` tuple and a dense
``(l, l)`` count matrix per taxi, and every downstream consumer
(``transition_matrix``, ``reach_profile``, the workload generator's
candidate ranking) re-enters Python per taxi.  That is fine at 250 taxis
and hopeless at a million.

This module re-states the whole fleet as flat CSR-style arrays and runs
every stage batched:

* :func:`fit_fleet` — transition counting for *all* taxis in one pass:
  a ``lexsort`` + change-mask finds each taxi's sorted unique locations,
  a searchsorted over globally-ascending ``(taxi, cell)`` keys maps every
  observation to its local state index, and one ``bincount`` over
  ``sq_offset[taxi] + from*l + to`` produces exactly the integer counts
  the reference accumulates with ``counts[i, j] += 1.0``.
* :func:`fleet_profiles` — smoothing, the first-hit reach DP, snapshot
  positions and candidate ranking, batched over groups of taxis that
  share a support size ``l`` (no padding, so every float op is the same
  op the reference performs on a single ``(l, l)`` matrix).
* :func:`topm_hit_ranks` — the Figure-3 predictor's rank of the true
  next cell inside each held-out pair's one-step row, for the vectorized
  ``prediction_accuracy``.

Bit-identical parity contract
-----------------------------
Every float produced here must equal the reference bit-for-bit.  The
rules this file relies on (verified on this host, pinned by the parity
suites in ``tests/mobility`` and ``tests/perf``):

* numpy's pairwise summation tree depends only on the reduced-axis
  length, so ``block.sum(axis=2)`` on a ``(B, l, l)`` gather equals the
  reference's per-row ``counts.sum()``;
* batched ``np.matmul`` on ``(B, l, l)`` operands equals the per-slice
  2-D ``matmul`` the reference DP performs;
* ``hit.mean(axis=1)`` on the batch equals the reference's per-taxi
  ``hit.mean(axis=0)`` fallback;
* ``np.argsort(-vals, kind="stable")`` over ascending-cell rows equals
  ``sorted(items, key=lambda kv: (-kv[1], kv[0]))``.

Counts are integers and therefore exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.errors import ValidationError

__all__ = [
    "SequenceChunk",
    "FleetCounts",
    "FleetProfiles",
    "fit_fleet",
    "fleet_profiles",
    "topm_hit_ranks",
    "take_csr",
]

#: Elements per grouped gather sub-batch: bounds peak memory of the
#: ``(B, l, l)`` dense blocks (plus the DP temporaries) regardless of how
#: many taxis share a support size.
_GATHER_BUDGET = 1 << 24


def take_csr(
    values: np.ndarray, indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR rows: concatenated ``values`` segments for ``rows``.

    Returns ``(new_values, new_indptr)``; segment order follows ``rows``.

    >>> v = np.array([10, 11, 20, 30, 31, 32])
    >>> ptr = np.array([0, 2, 3, 6])
    >>> out, optr = take_csr(v, ptr, np.array([2, 0]))
    >>> out.tolist(), optr.tolist()
    ([30, 31, 32, 10, 11], [0, 3, 5])
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    new_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    if total == 0:
        return values[:0].copy(), new_indptr
    # flat[i] = starts[row_of(i)] + (i - new_indptr[row_of(i)])
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - new_indptr[:-1], lengths)
    return values[flat], new_indptr


@dataclass(frozen=True)
class SequenceChunk:
    """A batch of per-taxi location sequences as flat arrays.

    ``cells[indptr[i]:indptr[i+1]]`` is taxi ``taxi_ids[i]``'s
    time-ordered cell sequence.  :func:`fit_fleet` counts a whole chunk
    in array ops, without ever building per-taxi Python objects.
    """

    taxi_ids: np.ndarray
    cells: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "taxi_ids", np.asarray(self.taxi_ids, dtype=np.int64))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=np.int64))
        object.__setattr__(self, "indptr", np.asarray(self.indptr, dtype=np.int64))
        if self.indptr.ndim != 1 or self.indptr.size != self.taxi_ids.size + 1:
            raise ValidationError("indptr must have one more entry than taxi_ids")
        if self.indptr[0] != 0 or bool((np.diff(self.indptr) < 0).any()):
            raise ValidationError("indptr must start at 0 and be non-decreasing")
        if int(self.cells.size) != int(self.indptr[-1]):
            raise ValidationError("cells length must equal indptr[-1]")

    @classmethod
    def from_mapping(cls, sequences: Mapping[int, Sequence[int]]) -> "SequenceChunk":
        """Build a chunk from the reference ``{taxi_id: sequence}`` mapping."""
        taxi_ids = np.fromiter((int(t) for t in sequences), dtype=np.int64, count=len(sequences))
        lengths = np.fromiter(
            (len(seq) for seq in sequences.values()), dtype=np.int64, count=len(sequences)
        )
        indptr = np.zeros(taxi_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # One fromiter over the chained sequences beats 10^5 tiny
        # asarray+concatenate segments by an order of magnitude.
        from itertools import chain

        cells = np.fromiter(
            chain.from_iterable(sequences.values()),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return cls(taxi_ids=taxi_ids, cells=cells, indptr=indptr)

    @property
    def n_taxis(self) -> int:
        return int(self.taxi_ids.size)

    def sequence_of(self, row: int) -> np.ndarray:
        return self.cells[self.indptr[row] : self.indptr[row + 1]]


@dataclass(frozen=True)
class FleetCounts:
    """Every taxi's fitted transition counts, as one flat structure.

    Row ``i`` covers taxi ``taxi_ids[i]``; its sorted unique locations
    are ``loc_cells[loc_indptr[i]:loc_indptr[i+1]]`` and its dense
    ``(l, l)`` count matrix is
    ``counts_flat[sq_indptr[i]:sq_indptr[i+1]].reshape(l, l)`` — exactly
    the arrays a reference :class:`~repro.mobility.markov.TaxiModel`
    holds, concatenated.
    """

    taxi_ids: np.ndarray
    loc_indptr: np.ndarray
    loc_cells: np.ndarray
    sq_indptr: np.ndarray
    counts_flat: np.ndarray

    @property
    def n_taxis(self) -> int:
        return int(self.taxi_ids.size)

    @property
    def n_locations(self) -> np.ndarray:
        return np.diff(self.loc_indptr)

    def locations_of(self, row: int) -> np.ndarray:
        return self.loc_cells[self.loc_indptr[row] : self.loc_indptr[row + 1]]

    def counts_of(self, row: int) -> np.ndarray:
        l = int(self.loc_indptr[row + 1] - self.loc_indptr[row])
        return self.counts_flat[self.sq_indptr[row] : self.sq_indptr[row + 1]].reshape(l, l)

    @classmethod
    def empty(cls) -> "FleetCounts":
        zero = np.zeros(0, dtype=np.int64)
        one = np.zeros(1, dtype=np.int64)
        return cls(zero, one, zero, one, np.zeros(0, dtype=np.float64))

    @classmethod
    def from_models(cls, models: Mapping[int, object]) -> "FleetCounts":
        """Flatten fitted ``TaxiModel`` objects, rows sorted by taxi id."""
        taxi_ids = np.asarray(sorted(models), dtype=np.int64)
        if taxi_ids.size == 0:
            return cls.empty()
        ordered = [models[int(t)] for t in taxi_ids]
        lengths = np.asarray([m.n_locations for m in ordered], dtype=np.int64)
        loc_indptr = np.zeros(taxi_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=loc_indptr[1:])
        sq_indptr = np.zeros(taxi_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths * lengths, out=sq_indptr[1:])
        loc_cells = np.concatenate(
            [np.asarray(m.locations, dtype=np.int64) for m in ordered]
        )
        counts_flat = np.concatenate(
            [np.asarray(m.counts, dtype=np.float64).ravel() for m in ordered]
        )
        return cls(taxi_ids, loc_indptr, loc_cells, sq_indptr, counts_flat)

    def sorted_by_taxi(self) -> "FleetCounts":
        """The same counts with rows in ascending-taxi-id order."""
        if self.n_taxis <= 1 or bool((np.diff(self.taxi_ids) > 0).all()):
            return self
        order = np.argsort(self.taxi_ids, kind="stable")
        loc_cells, loc_indptr = take_csr(self.loc_cells, self.loc_indptr, order)
        counts_flat, sq_indptr = take_csr(self.counts_flat, self.sq_indptr, order)
        return FleetCounts(
            taxi_ids=self.taxi_ids[order],
            loc_indptr=loc_indptr,
            loc_cells=loc_cells,
            sq_indptr=sq_indptr,
            counts_flat=counts_flat,
        )


def fit_fleet(chunk: SequenceChunk) -> FleetCounts:
    """Count transitions for every taxi in one vectorized pass.

    Taxis with fewer than two observations are skipped (nothing to learn
    — same rule as the reference ``fit``); surviving rows keep the
    chunk's order.  Counts are exact integers, so parity with the
    reference's ``+= 1.0`` accumulation is by construction.
    """
    lengths = np.diff(chunk.indptr)
    keep = lengths >= 2
    taxi_ids = chunk.taxi_ids[keep]
    n = int(taxi_ids.size)
    if n == 0:
        return FleetCounts.empty()
    cells = chunk.cells
    if not bool(keep.all()):
        cells = cells[np.repeat(keep, lengths)]
    lengths = lengths[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    taxi_of = np.repeat(np.arange(n, dtype=np.int64), lengths)

    cmin = int(cells.min())
    span = int(cells.max()) - cmin + 1
    if span > (2**62) // max(n, 1):
        raise ValidationError(
            f"cell-id range {span} too large to vectorize over {n} taxis"
        )
    shifted = cells - cmin

    # Per-taxi sorted unique locations via one lexsort + change mask.
    order = np.lexsort((shifted, taxi_of))
    s_taxi = taxi_of[order]
    s_cell = shifted[order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    new[1:] = (s_taxi[1:] != s_taxi[:-1]) | (s_cell[1:] != s_cell[:-1])
    loc_shifted = s_cell[new]
    loc_taxi = s_taxi[new]
    l_per = np.bincount(loc_taxi, minlength=n)
    loc_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(l_per, out=loc_indptr[1:])

    # Local state index of every observation: the (taxi, cell) keys are
    # globally ascending, so one searchsorted resolves all of them.
    loc_keys = loc_taxi * span + loc_shifted
    local = np.searchsorted(loc_keys, taxi_of * span + shifted) - loc_indptr[taxi_of]

    # Transition pairs: every observation except each taxi's last.
    from_mask = np.ones(cells.size, dtype=bool)
    from_mask[indptr[1:] - 1] = False
    idx = np.nonzero(from_mask)[0]
    sq_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(l_per * l_per, out=sq_indptr[1:])
    trans_taxi = taxi_of[idx]
    keys = sq_indptr[trans_taxi] + local[idx] * l_per[trans_taxi] + local[idx + 1]
    counts_flat = np.bincount(keys, minlength=int(sq_indptr[-1])).astype(np.float64)

    return FleetCounts(
        taxi_ids=taxi_ids,
        loc_indptr=loc_indptr,
        loc_cells=loc_shifted + cmin,
        sq_indptr=sq_indptr,
        counts_flat=counts_flat,
    )


@dataclass(frozen=True)
class FleetProfiles:
    """Per-taxi snapshot position + ranked reach profiles, rows sorted by taxi id.

    ``reach`` aligns with ``loc_cells``/``loc_indptr`` (the clamped
    within-``horizon`` reach probability of every known location — the
    single-task path's fallback lookup).  ``ranked_*`` hold each taxi's
    candidate destinations sorted by ``(-reach, cell)`` and truncated to
    the generator's ``max(max_k, 20)`` window, exactly the reference
    generator's ``_ranked`` lists.
    """

    taxi_ids: np.ndarray
    current: np.ndarray
    loc_indptr: np.ndarray
    loc_cells: np.ndarray
    reach: np.ndarray
    ranked_indptr: np.ndarray
    ranked_cells: np.ndarray
    ranked_pos: np.ndarray
    smoothing: str
    horizon: int

    @property
    def n_taxis(self) -> int:
        return int(self.taxi_ids.size)

    def ranked_of(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self.ranked_indptr[row], self.ranked_indptr[row + 1])
        return self.ranked_cells[sl], self.ranked_pos[sl]

    def reach_at_cell(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """``(values, present)`` of one cell's reach across all taxis.

        ``values[i]`` is meaningful only where ``present[i]`` — i.e. where
        ``cell`` is among taxi ``i``'s known locations.
        """
        n = self.n_taxis
        if n == 0 or self.loc_cells.size == 0:
            return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=bool)
        cmin = int(self.loc_cells.min())
        span = int(self.loc_cells.max()) - cmin + 1
        shifted = int(cell) - cmin
        if shifted < 0 or shifted >= span:
            return np.zeros(n, dtype=np.float64), np.zeros(n, dtype=bool)
        row_of_loc = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.loc_indptr))
        keys = row_of_loc * span + (self.loc_cells - cmin)
        queries = np.arange(n, dtype=np.int64) * span + shifted
        pos = np.searchsorted(keys, queries)
        pos_c = np.minimum(pos, keys.size - 1)
        present = keys[pos_c] == queries
        values = np.where(present, self.reach[pos_c], 0.0)
        return values, present

    def popular_cells(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(cells, counts)`` sorted by ``(-count, cell)`` over ranked lists.

        Counting how many of the given taxis predict each cell — the
        reference generator's ``_popular_cells``, batched.
        """
        if rows is None:
            flat = self.ranked_cells
        else:
            flat, _ = take_csr(self.ranked_cells, self.ranked_indptr, rows)
        if flat.size == 0:
            zero = np.zeros(0, dtype=np.int64)
            return zero, zero
        cells, counts = np.unique(flat, return_counts=True)
        order = np.argsort(-counts, kind="stable")
        return cells[order], counts[order]


def _smoothed(block: np.ndarray, totals: np.ndarray, l: int, smoothing: str) -> np.ndarray:
    """Batched transition matrices from count blocks; one op per reference row."""
    if smoothing == "laplace":
        return (block + 1.0) / (totals + l)[:, :, None]
    if smoothing == "paper":
        return block / (totals + l)[:, :, None]
    # MLE: uniform rows where nothing was observed.
    zero = totals == 0.0
    denom = np.where(zero, 1.0, totals)
    mats = block / denom[:, :, None]
    if bool(zero.any()):
        mats[zero] = 1.0 / l
    return mats


def _reach(mats: np.ndarray, horizon: int) -> np.ndarray:
    """The reference first-hit DP, batched over the leading axis."""
    hit = mats.copy()
    for _ in range(horizon - 1):
        continuation = np.matmul(mats, hit)
        diag = np.diagonal(hit, axis1=1, axis2=2)
        correction = mats * diag[:, None, :]
        hit = mats + continuation - correction
    return hit


def _group_batches(l_per: np.ndarray, cost_per_row: np.ndarray) -> Iterator[np.ndarray]:
    """Row-index batches grouped by support size, bounded by the gather budget."""
    for l in np.unique(l_per):
        rows = np.nonzero(l_per == l)[0]
        batch = max(1, _GATHER_BUDGET // max(1, int(cost_per_row[rows[0]])))
        for start in range(0, rows.size, batch):
            yield rows[start : start + batch]


def fleet_profiles(
    counts: FleetCounts,
    smoothing: str,
    horizon: int,
    current_cells: Mapping[int, int] | None = None,
    max_keep: int | None = None,
) -> FleetProfiles:
    """Smooth, run the reach DP, pick snapshot positions and rank — batched.

    Bit-identical to calling the reference ``reach_profile`` +
    ``sorted(..., key=(-p, cell))`` per taxi: taxis are processed in
    groups that share a support size ``l``, so every float op acts on the
    same shapes the reference uses, just stacked.
    """
    if smoothing not in ("laplace", "paper", "mle"):
        raise ValidationError(f"unknown smoothing {smoothing!r}")
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon!r}")
    counts = counts.sorted_by_taxi()
    n = counts.n_taxis
    l_per = counts.n_locations.astype(np.int64)
    keep_per = l_per if max_keep is None else np.minimum(l_per, int(max_keep))
    ranked_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep_per, out=ranked_indptr[1:])
    current = np.zeros(n, dtype=np.int64)
    reach_flat = np.zeros(counts.loc_cells.size, dtype=np.float64)
    ranked_cells = np.zeros(int(ranked_indptr[-1]), dtype=np.int64)
    ranked_pos = np.zeros(int(ranked_indptr[-1]), dtype=np.float64)
    if n == 0:
        return FleetProfiles(
            counts.taxi_ids, current, counts.loc_indptr, counts.loc_cells,
            reach_flat, ranked_indptr, ranked_cells, ranked_pos,
            smoothing, int(horizon),
        )

    has_given = np.zeros(n, dtype=bool)
    given_cell = np.zeros(n, dtype=np.int64)
    if current_cells:
        row_of = {int(t): i for i, t in enumerate(counts.taxi_ids.tolist())}
        for taxi_id, cell in current_cells.items():
            row = row_of.get(int(taxi_id))
            if row is not None:
                has_given[row] = True
                given_cell[row] = int(cell)

    for rows in _group_batches(l_per, l_per * l_per):
        l = int(l_per[rows[0]])
        B = rows.size
        ar = np.arange(B)
        block = counts.counts_flat[
            counts.sq_indptr[rows][:, None] + np.arange(l * l, dtype=np.int64)
        ].reshape(B, l, l)
        locs = counts.loc_cells[
            counts.loc_indptr[rows][:, None] + np.arange(l, dtype=np.int64)
        ]
        totals = block.sum(axis=2)
        mats = _smoothed(block, totals, l, smoothing)
        hit = _reach(mats, horizon)

        # Snapshot position: the most-visited location, unless given.
        cur_local = totals.argmax(axis=1)
        cur = locs[ar, cur_local]
        given = has_given[rows]
        if bool(given.any()):
            cur = cur.copy()
            cur[given] = given_cell[rows][given]
        # Locate the snapshot cell inside each (ascending, unique) row.
        pos = (locs < cur[:, None]).sum(axis=1)
        pos_c = np.minimum(pos, l - 1)
        present = (pos < l) & (locs[ar, pos_c] == cur)
        vals = hit[ar, pos_c]
        if not bool(present.all()):
            vals = np.where(present[:, None], vals, hit.mean(axis=1))
        vals = np.minimum(vals, 1.0)

        order = np.argsort(-vals, axis=1, kind="stable")
        r_cells = np.take_along_axis(locs, order, axis=1)
        r_pos = np.take_along_axis(vals, order, axis=1)
        k = int(keep_per[rows[0]])

        current[rows] = cur
        reach_flat[counts.loc_indptr[rows][:, None] + np.arange(l, dtype=np.int64)] = vals
        dest = ranked_indptr[rows][:, None] + np.arange(k, dtype=np.int64)
        ranked_cells[dest] = r_cells[:, :k]
        ranked_pos[dest] = r_pos[:, :k]

    return FleetProfiles(
        taxi_ids=counts.taxi_ids,
        current=current,
        loc_indptr=counts.loc_indptr,
        loc_cells=counts.loc_cells,
        reach=reach_flat,
        ranked_indptr=ranked_indptr,
        ranked_cells=ranked_cells,
        ranked_pos=ranked_pos,
        smoothing=smoothing,
        horizon=int(horizon),
    )


#: Rank assigned when the true next cell is not among a taxi's locations:
#: it can never appear in any top-m set.
_NEVER_HIT = np.int64(2**31)


def topm_hit_ranks(
    counts: FleetCounts,
    smoothing: str,
    rows: np.ndarray,
    cur_cells: np.ndarray,
    next_cells: np.ndarray,
) -> np.ndarray:
    """Rank of each pair's true next cell in its one-step prediction order.

    ``rank < m`` iff the reference ``predict_top(taxi, cur, m)`` would
    contain ``next`` — the rank counts cells with strictly larger
    probability plus equal-probability cells with a smaller id, matching
    the ``(-p, cell)`` sort exactly (float comparisons on bit-identical
    rows are exact).  Pairs whose next cell the taxi never visits get
    :data:`_NEVER_HIT`.
    """
    if smoothing not in ("laplace", "paper", "mle"):
        raise ValidationError(f"unknown smoothing {smoothing!r}")
    rows = np.asarray(rows, dtype=np.int64)
    cur_cells = np.asarray(cur_cells, dtype=np.int64)
    next_cells = np.asarray(next_cells, dtype=np.int64)
    out = np.zeros(rows.size, dtype=np.int64)
    if rows.size == 0:
        return out
    l_per = counts.n_locations.astype(np.int64)
    l_of_pair = l_per[rows]
    for pair_batch in _group_batches(l_of_pair, l_of_pair):
        l = int(l_of_pair[pair_batch[0]])
        P = pair_batch.size
        ar = np.arange(P)
        prows = rows[pair_batch]
        locs = counts.loc_cells[
            counts.loc_indptr[prows][:, None] + np.arange(l, dtype=np.int64)
        ]
        cur = cur_cells[pair_batch]
        nxt = next_cells[pair_batch]
        cpos = (locs < cur[:, None]).sum(axis=1)
        cpos_c = np.minimum(cpos, l - 1)
        cpresent = (cpos < l) & (locs[ar, cpos_c] == cur)
        npos = (locs < nxt[:, None]).sum(axis=1)
        npos_c = np.minimum(npos, l - 1)
        npresent = (npos < l) & (locs[ar, npos_c] == nxt)

        crow = counts.counts_flat[
            (counts.sq_indptr[prows] + cpos_c * l)[:, None] + np.arange(l, dtype=np.int64)
        ]
        totals = crow.sum(axis=1)
        if smoothing == "laplace":
            prob = (crow + 1.0) / (totals + l)[:, None]
        elif smoothing == "paper":
            prob = crow / (totals + l)[:, None]
        else:
            zero = totals == 0.0
            denom = np.where(zero, 1.0, totals)
            prob = crow / denom[:, None]
            if bool(zero.any()):
                prob[zero] = 1.0 / l
        # Unseen current cell: the reference falls back to uniform.
        if not bool(cpresent.all()):
            prob = np.where(cpresent[:, None], prob, 1.0 / l)

        p_next = prob[ar, npos_c]
        rank = (prob > p_next[:, None]).sum(axis=1)
        rank += ((prob == p_next[:, None]) & (locs < nxt[:, None])).sum(axis=1)
        rank = np.where(npresent, rank, _NEVER_HIT)
        out[pair_batch] = rank
    return out
