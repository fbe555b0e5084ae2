"""Geographic grid over the city (paper, §IV-A).

The paper divides the map of Shanghai into 2 km × 2 km grid cells, each cell
representing one *location*; a sensing task is attached to a cell, and a
taxi can perform tasks at the cells where it picks up or drops passengers.

:class:`CityGrid` implements that discretisation with an equirectangular
approximation (exact enough at city scale: the error across Shanghai's ~80 km
extent is far below a cell size).  Cells are indexed row-major by a single
integer, which is what every other module uses as a *location id*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..core.errors import ValidationError

__all__ = ["CityGrid", "SHANGHAI_BBOX"]

#: Approximate bounding box of urban Shanghai (lon_min, lat_min, lon_max, lat_max).
SHANGHAI_BBOX = (121.0, 30.9, 121.9, 31.5)

#: Kilometres per degree of latitude (WGS-84 mean).
_KM_PER_DEG_LAT = 111.32


@dataclass(frozen=True)
class CityGrid:
    """A rectangular grid of square cells over a lon/lat bounding box.

    Args:
        lon_min, lat_min, lon_max, lat_max: Bounding box in degrees.
        cell_km: Cell edge length in kilometres (paper: 2 km).

    Cell ids are row-major: ``cell = row * n_cols + col`` with row 0 at the
    southern edge.  The derived sizes are computed once per instance.
    """

    lon_min: float = SHANGHAI_BBOX[0]
    lat_min: float = SHANGHAI_BBOX[1]
    lon_max: float = SHANGHAI_BBOX[2]
    lat_max: float = SHANGHAI_BBOX[3]
    cell_km: float = 2.0

    def __post_init__(self) -> None:
        if self.lon_min >= self.lon_max or self.lat_min >= self.lat_max:
            raise ValidationError("bounding box is empty or inverted")
        if self.cell_km <= 0:
            raise ValidationError(f"cell_km must be positive, got {self.cell_km!r}")

    @cached_property
    def _km_per_deg_lon(self) -> float:
        mid_lat = 0.5 * (self.lat_min + self.lat_max)
        return _KM_PER_DEG_LAT * math.cos(math.radians(mid_lat))

    @cached_property
    def n_cols(self) -> int:
        width_km = (self.lon_max - self.lon_min) * self._km_per_deg_lon
        return max(1, math.ceil(width_km / self.cell_km))

    @cached_property
    def n_rows(self) -> int:
        height_km = (self.lat_max - self.lat_min) * _KM_PER_DEG_LAT
        return max(1, math.ceil(height_km / self.cell_km))

    @cached_property
    def n_cells(self) -> int:
        return self.n_cols * self.n_rows

    def contains(self, lon: float, lat: float) -> bool:
        return self.lon_min <= lon <= self.lon_max and self.lat_min <= lat <= self.lat_max

    def cell_of(self, lon: float, lat: float) -> int:
        """Map a coordinate to its cell id; raises for out-of-box points."""
        if not self.contains(lon, lat):
            raise ValidationError(f"point ({lon}, {lat}) outside the grid bounding box")
        col = int((lon - self.lon_min) * self._km_per_deg_lon / self.cell_km)
        row = int((lat - self.lat_min) * _KM_PER_DEG_LAT / self.cell_km)
        col = min(col, self.n_cols - 1)  # points exactly on the max edge
        row = min(row, self.n_rows - 1)
        return row * self.n_cols + col

    def cells_of(
        self, lon: Sequence[float] | np.ndarray, lat: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """:meth:`cell_of` over arrays of coordinates, as an int64 array.

        The same float expression, truncation and edge clamp per point, so
        ``cells_of(lon, lat)[i] == cell_of(lon[i], lat[i])``; raises on the
        first point that :meth:`cell_of` would reject (out of box or NaN).
        """
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        inside = (self.lon_min <= lon) & (lon <= self.lon_max)
        inside &= (self.lat_min <= lat) & (lat <= self.lat_max)
        if not inside.all():
            bad = int(np.argmin(inside))
            raise ValidationError(f"point ({lon[bad]}, {lat[bad]}) outside the grid bounding box")
        col = ((lon - self.lon_min) * self._km_per_deg_lon / self.cell_km).astype(np.int64)
        row = ((lat - self.lat_min) * _KM_PER_DEG_LAT / self.cell_km).astype(np.int64)
        np.minimum(col, self.n_cols - 1, out=col)
        np.minimum(row, self.n_rows - 1, out=row)
        return row * self.n_cols + col

    def _check_cell(self, cell: int) -> None:
        if not (0 <= cell < self.n_cells):
            raise ValidationError(f"cell {cell} out of range [0, {self.n_cells})")

    def row_col(self, cell: int) -> tuple[int, int]:
        self._check_cell(cell)
        return divmod(cell, self.n_cols)

    def center_of(self, cell: int) -> tuple[float, float]:
        """(lon, lat) of a cell's centre."""
        row, col = self.row_col(cell)
        lon = self.lon_min + (col + 0.5) * self.cell_km / self._km_per_deg_lon
        lat = self.lat_min + (row + 0.5) * self.cell_km / _KM_PER_DEG_LAT
        return (min(lon, self.lon_max), min(lat, self.lat_max))

    def distance_km(self, cell_a: int, cell_b: int) -> float:
        """Euclidean distance between cell centres, in kilometres."""
        row_a, col_a = self.row_col(cell_a)
        row_b, col_b = self.row_col(cell_b)
        return self.cell_km * math.hypot(row_a - row_b, col_a - col_b)

    @cached_property
    def _km_by_offset(self) -> np.ndarray:
        # math.hypot, not np.hypot: the two differ in the last ulp on some
        # offsets, and distance_matrix must equal distance_km exactly.
        return np.array(
            [
                [self.cell_km * math.hypot(dr, dc) for dc in range(self.n_cols)]
                for dr in range(self.n_rows)
            ]
        )

    def distance_matrix(self, cells: Sequence[int]) -> np.ndarray:
        """Pairwise :meth:`distance_km` of ``cells``: ``out[i, j]`` is the
        distance from ``cells[i]`` to ``cells[j]``, bit for bit."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size:
            self._check_cell(int(cells.min()))
            self._check_cell(int(cells.max()))
        rows, cols = np.divmod(cells, self.n_cols)
        return self._km_by_offset[
            np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])
        ]

    def neighborhood(self, cell: int, radius_cells: int) -> list[int]:
        """Cell ids within a square Chebyshev radius (including ``cell``)."""
        if radius_cells < 0:
            raise ValidationError(f"radius must be >= 0, got {radius_cells!r}")
        row, col = self.row_col(cell)
        cells = []
        for dr in range(-radius_cells, radius_cells + 1):
            r = row + dr
            if not (0 <= r < self.n_rows):
                continue
            for dc in range(-radius_cells, radius_cells + 1):
                c = col + dc
                if 0 <= c < self.n_cols:
                    cells.append(r * self.n_cols + c)
        return cells
