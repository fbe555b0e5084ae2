"""Probability-of-success / contribution transforms (paper, Section II).

The paper linearises the probabilistic coverage constraint

``1 - prod_{i in I} (1 - p_i^j) >= T_j``

by the log transform

``q_i^j = -ln(1 - p_i^j)``    (a user's *contribution* to task ``j``)
``Q_j   = -ln(1 - T_j)``      (a task's *contribution requirement*)

after which the constraint becomes the additive ``sum q_i^j >= Q_j``.

This module centralises the transform, its inverse, and the clamping rules
used throughout the library:

* a PoS of exactly 1 maps to an infinite contribution.  We cap contributions
  at :data:`MAX_CONTRIBUTION` (corresponding to a PoS of ``1 - 1e-12``) so
  that arithmetic stays finite while a "certain" user still dominates any
  realistic requirement;
* tiny negative floating-point noise in probabilities is clamped to 0.

The paper's multi-task analysis (Theorem 5) additionally discretises
contributions into units of ``Δq``; :func:`quantize_contribution` implements
that rounding.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = [
    "MAX_CONTRIBUTION",
    "MIN_POS",
    "MAX_POS",
    "pos_to_contribution",
    "contribution_to_pos",
    "aggregate_pos",
    "achieved_pos",
    "quantize_contribution",
    "units_of_contribution",
]

#: Largest PoS representable without an infinite contribution.
MAX_POS = 1.0 - 1e-12

#: Smallest PoS (a user that never succeeds contributes nothing).
MIN_POS = 0.0

#: Contribution corresponding to :data:`MAX_POS`; caps ``-ln(1-p)``.
MAX_CONTRIBUTION = -math.log1p(-MAX_POS)


def pos_to_contribution(pos: float) -> float:
    """Map a probability of success ``p`` to its contribution ``-ln(1-p)``.

    Values are clamped into ``[MIN_POS, MAX_POS]`` first, so ``p = 1`` yields
    :data:`MAX_CONTRIBUTION` rather than ``inf`` and small negative noise
    yields 0.

    >>> pos_to_contribution(0.0)
    0.0
    >>> round(pos_to_contribution(0.8), 6)
    1.609438
    """
    if not math.isfinite(pos):
        raise ValueError(f"PoS must be finite, got {pos!r}")
    clamped = min(max(pos, MIN_POS), MAX_POS)
    # math.log1p(-p) == ln(1 - p) computed accurately for small p.
    return -math.log1p(-clamped)


def contribution_to_pos(contribution: float) -> float:
    """Inverse transform: map a contribution ``q`` back to ``1 - e^{-q}``.

    >>> round(contribution_to_pos(pos_to_contribution(0.35)), 12)
    0.35
    """
    if contribution < 0:
        raise ValueError(f"contribution must be non-negative, got {contribution!r}")
    # math.expm1(-q) == e^{-q} - 1 computed accurately for small q.
    return -math.expm1(-contribution)


def aggregate_pos(pos_values: Iterable[float]) -> float:
    """Combined success probability of independent attempts.

    ``1 - prod(1 - p_i)`` — the probability that at least one of the
    independent attempts succeeds.  This is the quantity the platform's
    coverage constraint bounds from below.

    >>> round(aggregate_pos([0.5, 0.5]), 12)
    0.75
    >>> aggregate_pos([])
    0.0
    """
    total_q = 0.0
    for pos in pos_values:
        total_q += pos_to_contribution(pos)
    return contribution_to_pos(min(total_q, MAX_CONTRIBUTION))


def achieved_pos(contributions: Iterable[float]) -> float:
    """Combined success probability from already-transformed contributions."""
    total = sum(contributions)
    if total < 0:
        raise ValueError("contributions must be non-negative")
    return contribution_to_pos(min(total, MAX_CONTRIBUTION))


def quantize_contribution(contribution: float, delta_q: float) -> float:
    """Round a contribution down to an integer multiple of ``Δq``.

    The multi-task approximation analysis (paper, Theorem 5) assumes a
    minimal unit of contribution ``Δq``; the platform can enforce it by
    publishing the admissible PoS grid.  Rounding *down* means a quantized
    bid never overstates the user's contribution.

    >>> quantize_contribution(0.37, 0.125)
    0.25
    """
    if delta_q <= 0:
        raise ValueError(f"delta_q must be positive, got {delta_q!r}")
    return math.floor(contribution / delta_q + 1e-12) * delta_q


def units_of_contribution(contribution: float, delta_q: float) -> int:
    """Number of whole ``Δq`` units contained in ``contribution``.

    >>> units_of_contribution(0.37, 0.1)
    3
    """
    if delta_q <= 0:
        raise ValueError(f"delta_q must be positive, got {delta_q!r}")
    return int(math.floor(contribution / delta_q + 1e-12))
