"""Trace dataset handling: records → per-taxi location sequences, splits.

Bridges the raw event stream (:mod:`repro.mobility.records`) and the Markov
model (:mod:`repro.mobility.markov`): events are mapped to grid cells,
ordered by time per taxi, and optionally split into a training prefix and a
held-out set of (current, next) transition pairs — the paper's "snapshot"
evaluation of prediction accuracy (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..core.errors import ValidationError
from .grid import CityGrid
from .records import TraceRecord

__all__ = ["TransitionPair", "sequences_from_records", "split_sequences", "TraceDataset"]


@dataclass(frozen=True, slots=True)
class TransitionPair:
    """A held-out observed transition, for prediction evaluation."""

    taxi_id: int
    current_cell: int
    next_cell: int


def sequences_from_records(
    records: Iterable[TraceRecord], grid: CityGrid
) -> dict[int, list[int]]:
    """Per-taxi time-ordered cell sequences.

    Taxis appear in the order of their first record.  Consecutive duplicate
    cells are collapsed: staying put is not a transition the mobility model
    should count.
    """
    records = list(records)
    if not records:
        return {}
    cells = grid.cells_of([r.lon for r in records], [r.lat for r in records])
    taxi_list = [r.taxi_id for r in records]
    taxi_ids = np.array(taxi_list)
    timestamps = np.array([r.timestamp for r in records], dtype=np.float64)
    # Grouped by taxi, each taxi's events in the order that sorting its
    # (timestamp, cell) pairs gives; then drop each repeat of the cell before.
    order = np.lexsort((cells, timestamps, taxi_ids))
    taxi_ids, cells = taxi_ids[order], cells[order]
    new_taxi = np.r_[True, taxi_ids[1:] != taxi_ids[:-1]]
    keep = new_taxi | np.r_[True, cells[1:] != cells[:-1]]
    taxi_ids, cells, starts = taxi_ids[keep], cells[keep], np.flatnonzero(new_taxi[keep])
    by_taxi = dict(zip(taxi_ids[starts].tolist(), np.split(cells, starts[1:])))
    return {taxi: by_taxi[taxi].tolist() for taxi in dict.fromkeys(taxi_list)}


def split_sequences(
    sequences: Mapping[int, list[int]], train_fraction: float = 0.8
) -> tuple[dict[int, list[int]], list[TransitionPair]]:
    """Split every sequence into a training prefix and held-out transitions.

    The split is temporal (prefix/suffix), matching how a deployed platform
    would train on history and predict the future.  Held-out pairs whose
    current cell never appears in training data are still included — the
    model must handle them (it falls back to a uniform guess).
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    train: dict[int, list[int]] = {}
    held_out: list[TransitionPair] = []
    for taxi_id, sequence in sequences.items():
        cut = max(2, int(len(sequence) * train_fraction))
        train[taxi_id] = sequence[:cut]
        tail = sequence[cut - 1 :]  # overlap one element so the first test pair
        for current, following in zip(tail, tail[1:]):  # starts where training ended
            held_out.append(TransitionPair(taxi_id, current, following))
    return train, held_out


@dataclass(frozen=True)
class TraceDataset:
    """A materialised dataset: sequences plus an optional held-out split."""

    sequences: dict[int, list[int]]
    train: dict[int, list[int]]
    held_out: tuple[TransitionPair, ...]

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        grid: CityGrid,
        train_fraction: float = 0.8,
    ) -> "TraceDataset":
        sequences = sequences_from_records(records, grid)
        train, held_out = split_sequences(sequences, train_fraction)
        return cls(sequences=sequences, train=train, held_out=tuple(held_out))

    @property
    def n_taxis(self) -> int:
        return len(self.sequences)

    @property
    def n_transitions(self) -> int:
        return sum(max(0, len(s) - 1) for s in self.sequences.values())
