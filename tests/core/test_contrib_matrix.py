"""ContributionMatrix: bit-parity with the dense layout, chunking, indexes.

The float-parity contract (module docstring of
:mod:`repro.core.contrib_matrix`) is that :meth:`gains` reproduces the
dense kernel's full-width ``np.minimum(..., residual)`` reductions bit for
bit — including when the scratch buffer forces chunked processing — that
:meth:`subtract_row` reproduces its ``np.maximum(0.0, residual - row)``
update byte for byte, and that the stored values are the very floats
``UserType.contribution`` returns.
"""

from __future__ import annotations

import numpy as np

from repro.core.contrib_matrix import ContributionMatrix
from repro.core.types import UserType

from ..conftest import make_random_multi_task


def _build(rng, n_users=30, n_tasks=7, scratch_cells=None):
    instance = make_random_multi_task(rng, n_users=n_users, n_tasks=n_tasks)
    users = sorted(instance.users, key=lambda u: u.user_id)
    task_index = {task.task_id: j for j, task in enumerate(instance.tasks)}
    kwargs = {} if scratch_cells is None else {"scratch_cells": scratch_cells}
    matrix = ContributionMatrix(users, task_index, len(instance.tasks), **kwargs)
    dense = np.zeros((len(users), len(instance.tasks)))
    for row, user in enumerate(users):
        for tid in user.pos:
            dense[row, task_index[tid]] = user.contribution(tid)
    return matrix, dense, users


def test_values_are_the_reference_contribution_floats(rng):
    matrix, dense, users = _build(rng)
    rebuilt = np.zeros_like(dense)
    for row in range(len(users)):
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        rebuilt[row, matrix.row_cols(row)] = matrix.vals[start:stop]
    np.testing.assert_array_equal(rebuilt, dense)
    assert matrix.nnz == int((dense > 0).sum())


def test_gains_bit_identical_to_dense_reduction(rng):
    matrix, dense, users = _build(rng)
    residual = rng.uniform(0.0, 2.0, size=dense.shape[1])
    rows = np.arange(len(users), dtype=np.int64)
    expected = np.minimum(dense, residual[None, :]).sum(axis=1)
    np.testing.assert_array_equal(matrix.gains(rows, residual), expected)
    # One-row calls (a replay's refresh batch can hold a single row).
    for row in range(len(users)):
        assert matrix.gains(np.array([row]), residual)[0] == expected[row]


def test_subtract_row_equals_dense_update(rng):
    """The in-place residual update is byte-equal to the dense oracle's
    ``np.maximum(0.0, residual - dense[row])`` and returns exactly the
    row's columns that were open before it: residuals above, below and
    equal to the row's values, and exact zeros."""
    matrix, dense, users = _build(rng)
    for trial in range(200):
        residual = rng.uniform(0.0, 1.5, size=dense.shape[1])
        residual[rng.random(dense.shape[1]) < 0.3] = 0.0
        row = int(rng.integers(len(users)))
        declared = np.flatnonzero(dense[row])
        if trial % 4 == 0 and declared.size:  # residual equal to the row's value
            residual[declared[0]] = dense[row, declared[0]]
        expected = np.maximum(0.0, residual - dense[row])
        open_cols = [int(j) for j in declared if residual[j] > 0.0]
        moved = matrix.subtract_row(row, residual)
        assert residual.tobytes() == expected.tobytes()
        assert sorted(moved.tolist()) == open_cols


def test_gains_chunked_by_tiny_scratch_matches_unchunked(rng):
    """A scratch cap far below n rows forces many chunks; same bits out."""
    matrix, dense, users = _build(rng, scratch_cells=1)  # one row per chunk
    assert matrix._chunk_rows == 1
    residual = rng.uniform(0.0, 2.0, size=dense.shape[1])
    subset = np.array([0, 5, 3, len(users) - 1, 7], dtype=np.int64)
    expected = np.minimum(dense[subset], residual[None, :]).sum(axis=1)
    np.testing.assert_array_equal(matrix.gains(subset, residual), expected)


def test_scratch_restored_after_gains(rng):
    matrix, dense, _ = _build(rng)
    residual = rng.uniform(0.5, 2.0, size=dense.shape[1])
    matrix.gains(np.arange(matrix.n_rows, dtype=np.int64), residual)
    assert not matrix._scratch().any()


def test_rows_touching_matches_dense_columns(rng):
    matrix, dense, _ = _build(rng)
    for cols in ([0], [2, 4], list(range(dense.shape[1]))):
        expected = np.unique(np.nonzero(dense[:, cols])[0])
        np.testing.assert_array_equal(
            matrix.rows_touching(np.array(cols, dtype=np.int64)), expected
        )
    assert matrix.rows_touching(np.empty(0, dtype=np.int64)).size == 0


def test_tasks_missing_from_index_are_dropped():
    users = [UserType(0, cost=1.0, pos={3: 0.5, 9: 0.4})]
    matrix = ContributionMatrix(users, {3: 0}, n_tasks=1)
    assert matrix.nnz == 1  # task 9 is not auctioned; its declaration drops
    assert matrix.row_cols(0).tolist() == [0]


def test_nbytes_counts_bounded_scratch(rng):
    matrix, _, _ = _build(rng, scratch_cells=1)
    small = matrix.nbytes
    big = _build(rng, scratch_cells=10_000)[0].nbytes
    assert 0 < small < big
