"""Next-location prediction evaluation (paper, §IV-B, Figure 3).

The paper takes a snapshot of the trace, predicts for each taxi the ``m``
most likely next locations (``m`` from 3 to 15), and reports the fraction of
held-out moves whose true destination falls in the predicted set — reaching
roughly 0.9 at ``m = 9``.  :func:`prediction_accuracy` reproduces that
curve; :func:`predicted_pos_samples` collects the predicted-PoS values whose
distribution Figure 4 plots.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import ValidationError
from .dataset import TransitionPair
from .markov import MarkovMobilityModel
from .markov_kernel import topm_hit_ranks

__all__ = [
    "prediction_accuracy",
    "prediction_accuracy_reference",
    "predicted_pos_samples",
]


def prediction_accuracy(
    model: MarkovMobilityModel,
    held_out: Sequence[TransitionPair],
    m_values: Sequence[int] = tuple(range(3, 16)),
) -> dict[int, float]:
    """Top-``m`` next-location accuracy over held-out transitions.

    Every pair's true next cell is ranked in one batched pass
    (:func:`repro.mobility.markov_kernel.topm_hit_ranks`): the rank counts
    strictly-larger-probability cells plus equal-probability cells with
    smaller ids — the ``(-p, cell)`` sort order of
    :meth:`MarkovMobilityModel.predict_top` — on bit-identical rows, so the
    result equals :func:`prediction_accuracy_reference` exactly.

    Args:
        model: A fitted mobility model.
        held_out: Ground-truth (current, next) pairs from the test split.
        m_values: The prediction-set sizes to evaluate (paper: 3..15).

    Returns:
        Map ``m -> fraction of pairs whose next cell is in the top-m set``.
        Pairs for taxis without a fitted model are skipped.
    """
    usable = _usable_pairs(model, held_out, m_values)
    counts = model.fleet_counts()
    rows = np.searchsorted(
        counts.taxi_ids, np.asarray([p.taxi_id for p in usable], dtype=np.int64)
    )
    ranks = topm_hit_ranks(
        counts,
        model.smoothing,
        rows,
        np.asarray([p.current_cell for p in usable], dtype=np.int64),
        np.asarray([p.next_cell for p in usable], dtype=np.int64),
    )
    return {m: int((ranks < m).sum()) / len(usable) for m in m_values}


def prediction_accuracy_reference(
    model: MarkovMobilityModel,
    held_out: Sequence[TransitionPair],
    m_values: Sequence[int] = tuple(range(3, 16)),
) -> dict[int, float]:
    """The per-pair ``predict_top`` loop: the parity oracle of
    :func:`prediction_accuracy`, with the same arguments and result.  No
    run path calls it; the parity tests do."""
    usable = _usable_pairs(model, held_out, m_values)
    accuracy: dict[int, float] = {}
    max_m = max(m_values)
    # Rank once per pair at the largest m; smaller m are prefixes.
    ranked = [
        (pair, model.predict_top(pair.taxi_id, pair.current_cell, max_m))
        for pair in usable
    ]
    for m in m_values:
        hits = sum(1 for pair, top in ranked if pair.next_cell in top[:m])
        accuracy[m] = hits / len(usable)
    return accuracy


def _usable_pairs(
    model: MarkovMobilityModel,
    held_out: Sequence[TransitionPair],
    m_values: Sequence[int],
) -> list[TransitionPair]:
    """The held-out pairs of fitted taxis, after validating the inputs."""
    if not held_out:
        raise ValidationError("held_out must be non-empty")
    fitted = set(model.taxi_ids)
    usable = [p for p in held_out if p.taxi_id in fitted]
    if not usable:
        raise ValidationError("no held-out pair matches a fitted taxi model")
    for m in m_values:
        if m <= 0:
            raise ValidationError(f"m must be positive, got {m!r}")
    return usable


def predicted_pos_samples(
    model: MarkovMobilityModel,
    current_cells: dict[int, int] | None = None,
) -> list[float]:
    """All predicted PoS values across taxis (the population Figure 4 bins).

    Args:
        model: A fitted mobility model.
        current_cells: Optional map taxi -> current location; defaults to
            each taxi's most-visited location (a stand-in for "where the
            snapshot finds her").

    Returns:
        One predicted PoS per (taxi, candidate next location) pair.
    """
    samples: list[float] = []
    for taxi_id in model.taxi_ids:
        taxi_model = model.model_for(taxi_id)
        if current_cells is not None and taxi_id in current_cells:
            current = current_cells[taxi_id]
        else:
            visits = taxi_model.counts.sum(axis=1)
            current = taxi_model.locations[int(visits.argmax())]
        samples.extend(model.pos_profile(taxi_id, current).values())
    return samples
