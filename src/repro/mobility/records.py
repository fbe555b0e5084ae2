"""Trace record schema and CSV (de)serialisation.

The paper's dataset records, per event, the *taxi ID*, *time stamp* and
*location (longitude and latitude)* of picking up and dropping passengers.
:class:`TraceRecord` mirrors that schema exactly, so code written against
this module would work unchanged on the real Shanghai dataset (see DESIGN.md,
substitution 1).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..core.errors import ValidationError

__all__ = ["EventType", "TraceRecord", "write_trace_csv", "read_trace_csv"]


class EventType(str, enum.Enum):
    """What happened at the recorded point."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One taxi trace event: (taxi, time, lon/lat, pickup|dropoff)."""

    taxi_id: int
    timestamp: float
    lon: float
    lat: float
    event: EventType

    def __post_init__(self) -> None:
        if self.taxi_id < 0:
            raise ValidationError(f"taxi_id must be >= 0, got {self.taxi_id!r}")
        if not (0 <= self.timestamp < math.inf):
            raise ValidationError(f"timestamp must be finite and >= 0, got {self.timestamp!r}")


_HEADER = ["taxi_id", "timestamp", "lon", "lat", "event"]


def write_trace_csv(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records to a CSV file; returns the number written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for record in records:
            writer.writerow(
                [
                    record.taxi_id,
                    f"{record.timestamp:.3f}",
                    f"{record.lon:.6f}",
                    f"{record.lat:.6f}",
                    record.event.value,
                ]
            )
            count += 1
    return count


def read_trace_csv(path: str | Path) -> Iterator[TraceRecord]:
    """Stream records back from a CSV file written by :func:`write_trace_csv`."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _HEADER:
            raise ValidationError(f"unexpected CSV header {header!r}; want {_HEADER!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(_HEADER):
                raise ValidationError(f"{path}:{line_no}: expected {len(_HEADER)} columns")
            yield TraceRecord(
                taxi_id=int(row[0]),
                timestamp=float(row[1]),
                lon=float(row[2]),
                lat=float(row[3]),
                event=EventType(row[4]),
            )
