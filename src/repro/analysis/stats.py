"""Statistical helpers for the evaluation (CDF/PDF plots, summaries).

Small, dependency-light utilities the experiment drivers and benchmarks use
to turn raw simulation output into the series the paper's figures plot:
empirical CDFs (Figure 6), histogram PDFs (Figure 4), and summary rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.errors import ValidationError

__all__ = ["empirical_cdf", "histogram_pdf", "Summary", "summarize"]


def empirical_cdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The empirical CDF of a sample: sorted values and F(value).

    Returns ``(xs, F)`` with ``F[i] = (i+1)/n`` — the fraction of the sample
    at or below ``xs[i]``.

    >>> xs, F = empirical_cdf([3.0, 1.0, 2.0])
    >>> xs.tolist(), F.tolist()
    ([1.0, 2.0, 3.0], [0.3333333333333333, 0.6666666666666666, 1.0])
    """
    if len(values) == 0:
        raise ValidationError("cannot build a CDF from an empty sample")
    xs = np.sort(np.asarray(values, dtype=float))
    F = np.arange(1, len(xs) + 1) / len(xs)
    return xs, F


def histogram_pdf(
    values: Sequence[float],
    bins: int = 20,
    value_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A normalised histogram (empirical PDF): bin centres and densities.

    Densities integrate to 1 over the histogram's range, matching the
    "empirical probability distribution function" of Figure 4.
    """
    if len(values) == 0:
        raise ValidationError("cannot build a PDF from an empty sample")
    density, edges = np.histogram(
        np.asarray(values, dtype=float), bins=bins, range=value_range, density=True
    )
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a sample."""
    if len(values) == 0:
        raise ValidationError("cannot summarize an empty sample")
    arr = np.asarray(values, dtype=float)
    return Summary(
        n=len(arr),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )
