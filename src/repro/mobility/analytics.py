"""Trace analytics: the dataset statistics behind the calibration.

The synthetic fleet is calibrated against the paper's *learned-model*
statistics (DESIGN.md, substitution 1); this module computes the underlying
trace-level statistics so a calibration — or a real dataset, once plugged
in through the same :class:`~repro.mobility.records.TraceRecord` schema —
can be inspected and compared:

* :func:`trace_summary` — fleet-level counts and inter-event times;
* :func:`support_size_distribution` — how many distinct cells each taxi
  visits (the paper's "locations she often visits", ``l``);
* :func:`cell_popularity` — visits per cell, the hotspot structure that
  makes downtown auctions dense;
* :func:`revisit_rate` — fraction of moves returning to an already-visited
  cell, a quick proxy for how learnable a taxi's mobility is.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..core.errors import ValidationError
from .grid import CityGrid
from .records import TraceRecord

__all__ = [
    "TraceSummary",
    "trace_summary",
    "support_size_distribution",
    "cell_popularity",
    "revisit_rate",
]


@dataclass(frozen=True, slots=True)
class TraceSummary:
    """Fleet-level descriptive statistics of a trace."""

    n_records: int
    n_taxis: int
    events_per_taxi_mean: float
    duration_s: float
    mean_headway_s: float
    pickup_fraction: float


def trace_summary(records: list[TraceRecord]) -> TraceSummary:
    """Descriptive statistics of a raw trace (pre-gridding)."""
    if not records:
        raise ValidationError("empty trace")
    by_taxi: dict[int, list[float]] = defaultdict(list)
    pickups = 0
    for record in records:
        by_taxi[record.taxi_id].append(record.timestamp)
        if record.event.value == "pickup":
            pickups += 1
    headways = []
    for times in by_taxi.values():
        times.sort()
        headways.extend(np.diff(times))
    timestamps = [r.timestamp for r in records]
    return TraceSummary(
        n_records=len(records),
        n_taxis=len(by_taxi),
        events_per_taxi_mean=len(records) / len(by_taxi),
        duration_s=max(timestamps) - min(timestamps),
        mean_headway_s=float(np.mean(headways)) if headways else 0.0,
        pickup_fraction=pickups / len(records),
    )


def support_size_distribution(
    sequences: dict[int, list[int]]
) -> dict[int, int]:
    """Histogram of per-taxi support sizes: size -> #taxis."""
    if not sequences:
        raise ValidationError("no sequences")
    counter = Counter(len(set(seq)) for seq in sequences.values())
    return dict(sorted(counter.items()))


def cell_popularity(
    records: Iterable[TraceRecord], grid: CityGrid, top: int = 20
) -> list[tuple[int, int]]:
    """The ``top`` most-visited cells as (cell id, visit count)."""
    if top <= 0:
        raise ValidationError(f"top must be positive, got {top!r}")
    records = list(records)
    cells = grid.cells_of([r.lon for r in records], [r.lat for r in records])
    return Counter(cells.tolist()).most_common(top)


def revisit_rate(sequences: dict[int, list[int]]) -> float:
    """Fraction of moves whose destination was already visited.

    High revisit rates mean a taxi's future is predictable from its past —
    the property the paper's Figure 3 accuracy depends on.
    """
    revisits = 0
    moves = 0
    for sequence in sequences.values():
        seen: set[int] = set()
        for index, cell in enumerate(sequence):
            if index > 0:
                moves += 1
                if cell in seen:
                    revisits += 1
            seen.add(cell)
    if moves == 0:
        raise ValidationError("no moves in any sequence")
    return revisits / moves
