"""Synthetic Shanghai taxi fleet (DESIGN.md, substitution 1).

The paper evaluates on a proprietary January-2013 trace of 1,692 Shanghai
taxis.  This module generates a synthetic fleet with the same *observable*
structure:

* each taxi has a small set of frequently visited locations (grid cells)
  clustered around a home area and biased toward city-wide hotspots;
* movement between them follows a per-taxi ground-truth Markov chain whose
  rows are skewed (a few likely destinations, a long tail) — calibrated so a
  *learned* model reproduces the paper's Figure 3 (top-9 next-location
  accuracy ≈ 0.9) and Figure 4 (predicted PoS mass concentrated below 0.2);
* the emitted events carry the exact record schema of the real dataset
  (taxi id, timestamp, lon/lat, pickup/dropoff).

The ground-truth chains are retained on the fleet object so tests can
compare learned estimates against the truth.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ValidationError
from .grid import CityGrid
from .records import EventType, TraceRecord

__all__ = ["FleetConfig", "TaxiGroundTruth", "SyntheticTaxiFleet"]


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Knobs of the synthetic fleet generator.

    Defaults are the calibrated values used by the benchmark harness (see
    module docstring); the paper's fleet size is 1,692 taxis, which the
    experiment drivers scale down where the full population is unnecessary.

    Attributes:
        n_taxis: Fleet size.
        support_size_range: Min/max number of frequent locations per taxi
            (inclusive).
        home_radius_cells: Chebyshev radius around the home cell from which
            the support is drawn.
        n_hotspots: Number of city-wide attraction centres.
        hotspot_scale_km: Decay length of hotspot attraction.
        locality_scale_km: Decay length of the per-step movement kernel —
            taxis prefer nearby next locations.
        row_dirichlet: Dirichlet concentration of ground-truth transition
            rows; smaller values give more skewed (peaky) rows.
        events_per_taxi: Trace length (pickup+dropoff events) per taxi.
        mean_headway_s: Mean time between consecutive events.
        region_radius_cells: When set, taxi homes are confined to a
            neighborhood of this Chebyshev radius around the city centre —
            a *concentrated* fleet whose supports overlap heavily.  The
            single-task experiments need this: they recruit up to 100 users
            for one location, which requires many taxis able to reach it.
    """

    n_taxis: int = 200
    support_size_range: tuple[int, int] = (10, 16)
    home_radius_cells: int = 4
    n_hotspots: int = 25
    hotspot_scale_km: float = 6.0
    locality_scale_km: float = 5.0
    row_dirichlet: float = 0.55
    events_per_taxi: int = 400
    mean_headway_s: float = 1200.0
    region_radius_cells: int | None = None

    def __post_init__(self) -> None:
        low, high = self.support_size_range
        if not (2 <= low <= high):
            raise ValidationError(f"support_size_range must satisfy 2 <= low <= high: {self.support_size_range!r}")
        if self.n_taxis <= 0:
            raise ValidationError(f"n_taxis must be positive, got {self.n_taxis!r}")
        if self.events_per_taxi < 2:
            raise ValidationError("events_per_taxi must be at least 2")
        if self.n_hotspots < 0:
            raise ValidationError(f"n_hotspots must be >= 0, got {self.n_hotspots!r}")
        for name in ("hotspot_scale_km", "locality_scale_km", "row_dirichlet", "mean_headway_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class TaxiGroundTruth:
    """A taxi's true mobility law: its support cells and transition matrix."""

    taxi_id: int
    support: tuple[int, ...]
    transition_matrix: np.ndarray = field(repr=False)

    def next_distribution(self, current_cell: int) -> dict[int, float]:
        """True P(next location | current), as a cell -> probability map."""
        idx = self.support.index(current_cell)
        row = self.transition_matrix[idx]
        return {cell: float(p) for cell, p in zip(self.support, row)}


class SyntheticTaxiFleet:
    """Generates ground-truth taxi chains and synthetic trace records.

    Args:
        grid: The city grid locations live on.
        config: Generator knobs.
        seed: RNG seed — the fleet (chains *and* traces) is a deterministic
            function of (grid, config, seed).

    Usage::

        fleet = SyntheticTaxiFleet(CityGrid(), FleetConfig(n_taxis=100), seed=7)
        records = fleet.generate_records()
    """

    def __init__(self, grid: CityGrid, config: FleetConfig | None = None, seed: int = 0):
        self.grid = grid
        self.config = config or FleetConfig()
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._attraction = self._build_attraction(rng)
        home_cells = self._home_cells()
        home_weights = self._attraction[home_cells]
        home_p = home_weights / home_weights.sum()
        self.ground_truth: dict[int, TaxiGroundTruth] = {}
        for taxi_id in range(self.config.n_taxis):
            self.ground_truth[taxi_id] = self._build_taxi(taxi_id, home_cells, home_p, rng)

    # ------------------------------------------------------------------ #
    # Ground-truth construction
    # ------------------------------------------------------------------ #

    def _build_attraction(self, rng: np.random.Generator) -> np.ndarray:
        """City-wide attraction per cell: a mixture of hotspot kernels."""
        n = self.grid.n_cells
        hotspots = rng.choice(n, size=min(self.config.n_hotspots, n), replace=False)
        weights = rng.gamma(shape=2.0, scale=1.0, size=len(hotspots))
        rows, cols = np.divmod(np.arange(n), self.grid.n_cols)
        attraction = np.full(n, 0.05)
        for hotspot, weight in zip(hotspots, weights):
            h_row, h_col = divmod(int(hotspot), self.grid.n_cols)
            dist_km = self.grid.cell_km * np.hypot(rows - h_row, cols - h_col)
            attraction += weight * np.exp(-dist_km / self.config.hotspot_scale_km)
        return attraction

    def _home_cells(self) -> list[int]:
        """Cells taxi homes may be drawn from (whole city or the region)."""
        if self.config.region_radius_cells is None:
            return list(range(self.grid.n_cells))
        center_row = self.grid.n_rows // 2
        center_col = self.grid.n_cols // 2
        center = center_row * self.grid.n_cols + center_col
        return self.grid.neighborhood(center, self.config.region_radius_cells)

    def _build_taxi(
        self, taxi_id: int, home_cells: list[int], home_p: np.ndarray, rng: np.random.Generator
    ) -> TaxiGroundTruth:
        home = home_cells[int(rng.choice(len(home_cells), p=home_p))]
        neighborhood = self.grid.neighborhood(home, self.config.home_radius_cells)
        low, high = self.config.support_size_range
        size = min(int(rng.integers(low, high + 1)), len(neighborhood))
        local_attraction = self._attraction[neighborhood]
        probs = local_attraction / local_attraction.sum()
        chosen = rng.choice(len(neighborhood), size=size, replace=False, p=probs)
        support = tuple(sorted(neighborhood[i] for i in chosen))

        # Locality kernel times a Dirichlet draw: nearby cells are more
        # likely, and the Dirichlet skews each row so a handful of
        # destinations carry most of the mass (Figure 3/4 calibration).
        # One size-l draw is the same stream as l single-row draws.
        l = len(support)
        kernel = np.exp(-self.grid.distance_matrix(support) / self.config.locality_scale_km)
        random_part = rng.dirichlet(np.full(l, self.config.row_dirichlet), size=l)
        matrix = kernel * (random_part + 1e-4)
        for row in matrix:
            row /= row.sum()
        return TaxiGroundTruth(taxi_id=taxi_id, support=support, transition_matrix=matrix)

    # ------------------------------------------------------------------ #
    # Trace generation
    # ------------------------------------------------------------------ #

    def walk(self, taxi_id: int, n_steps: int, rng: np.random.Generator) -> list[int]:
        """Sample a cell sequence of length ``n_steps`` from the true chain.

        Consumes ``rng`` exactly as one ``rng.choice(l, p=row)`` per step
        would: one double per step, searched in the row's normalised
        cumulative sum.
        """
        if n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {n_steps!r}")
        truth = self.ground_truth[taxi_id]
        support = truth.support
        cdf = truth.transition_matrix.cumsum(axis=1)
        cdfs = (cdf / cdf[:, -1:]).tolist()
        current = int(rng.integers(len(support)))
        path = [support[current]]
        for u in rng.random(n_steps - 1).tolist():
            current = bisect_right(cdfs[current], u)
            path.append(support[current])
        return path

    def generate_records(self) -> list[TraceRecord]:
        """Emit the full fleet trace, time-ordered per taxi.

        Events alternate pickup/dropoff along each taxi's Markov walk, with
        exponential headways, mirroring the real dataset's structure.  Each
        event lies at a random point inside its cell, not at the centre.
        """
        grid = self.grid
        headway = self.config.mean_headway_s
        # Per event, rng.uniform(-half, half) twice and rng.exponential(headway),
        # written as numpy's own formulas over single draws (same stream).
        half_lon = 0.45 * grid.cell_km / grid._km_per_deg_lon
        half_lat = 0.45 * grid.cell_km / 111.32
        span_lon = half_lon - -half_lon
        span_lat = half_lat - -half_lat
        centers = {
            cell: grid.center_of(cell)
            for truth in self.ground_truth.values()
            for cell in truth.support
        }
        events = (EventType.PICKUP, EventType.DROPOFF)
        records: list[TraceRecord] = []
        rng = np.random.default_rng(self.seed + 1)  # independent of chain construction
        random, standard_exponential = rng.random, rng.standard_exponential
        for taxi_id in range(self.config.n_taxis):
            path = self.walk(taxi_id, self.config.events_per_taxi, rng)
            time = float(rng.uniform(0, headway))
            for step, cell in enumerate(path):
                lon, lat = centers[cell]
                lon = min(max(lon + (-half_lon + span_lon * random()), grid.lon_min), grid.lon_max)
                lat = min(max(lat + (-half_lat + span_lat * random()), grid.lat_min), grid.lat_max)
                records.append(TraceRecord(taxi_id, time, lon, lat, events[step % 2]))
                time += headway * standard_exponential()
        return records
