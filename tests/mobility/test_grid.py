"""Tests for the city grid (2 km cells over Shanghai)."""

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.mobility.grid import SHANGHAI_BBOX, CityGrid


class TestConstruction:
    def test_default_covers_shanghai(self):
        grid = CityGrid()
        assert (grid.lon_min, grid.lat_min, grid.lon_max, grid.lat_max) == SHANGHAI_BBOX

    def test_cell_counts_positive(self):
        grid = CityGrid()
        assert grid.n_rows > 0 and grid.n_cols > 0
        assert grid.n_cells == grid.n_rows * grid.n_cols

    def test_two_km_cells_give_expected_dimensions(self):
        grid = CityGrid()
        # ~0.9 deg lon * ~95 km/deg / 2 km ~ 43 cols; 0.6 deg lat * 111 / 2 ~ 34.
        assert 40 <= grid.n_cols <= 46
        assert 32 <= grid.n_rows <= 36

    def test_inverted_bbox_rejected(self):
        with pytest.raises(ValidationError):
            CityGrid(lon_min=122.0, lon_max=121.0)

    def test_bad_cell_size_rejected(self):
        with pytest.raises(ValidationError):
            CityGrid(cell_km=0.0)

    def test_finer_cells_mean_more_of_them(self):
        coarse = CityGrid(cell_km=4.0)
        fine = CityGrid(cell_km=1.0)
        assert fine.n_cells > coarse.n_cells


class TestMapping:
    def test_roundtrip_center(self):
        grid = CityGrid()
        for cell in (0, 1, grid.n_cols, grid.n_cells - 1, grid.n_cells // 2):
            lon, lat = grid.center_of(cell)
            assert grid.cell_of(lon, lat) == cell

    def test_out_of_box_rejected(self):
        grid = CityGrid()
        with pytest.raises(ValidationError):
            grid.cell_of(120.0, 31.0)
        with pytest.raises(ValidationError):
            grid.cell_of(121.5, 30.0)

    def test_corners_map_to_valid_cells(self):
        grid = CityGrid()
        assert grid.cell_of(grid.lon_min, grid.lat_min) == 0
        assert grid.cell_of(grid.lon_max, grid.lat_max) == grid.n_cells - 1

    @pytest.mark.parametrize("cell_km", [2.0, 0.7])
    def test_array_mapping_equals_cell_of(self, cell_km):
        grid = CityGrid(cell_km=cell_km)
        rng = np.random.default_rng(3)
        lon = rng.uniform(grid.lon_min, grid.lon_max, 2000).tolist()
        lat = rng.uniform(grid.lat_min, grid.lat_max, 2000).tolist()
        mid_lon = 0.5 * (grid.lon_min + grid.lon_max)
        mid_lat = 0.5 * (grid.lat_min + grid.lat_max)
        for edge_lon, edge_lat in [
            (grid.lon_min, grid.lat_min),
            (grid.lon_min, grid.lat_max),
            (grid.lon_max, grid.lat_min),
            (grid.lon_max, grid.lat_max),
            (grid.lon_max, mid_lat),
            (mid_lon, grid.lat_max),
        ]:
            lon.append(edge_lon)
            lat.append(edge_lat)
        cells = grid.cells_of(lon, lat)
        assert cells.dtype == np.int64
        assert cells.tolist() == [grid.cell_of(x, y) for x, y in zip(lon, lat)]

    @pytest.mark.parametrize(
        "point", [(120.0, 31.0), (121.5, 30.0), (float("nan"), 31.0), (121.5, float("nan"))]
    )
    def test_array_mapping_rejects_what_cell_of_rejects(self, point):
        grid = CityGrid()
        with pytest.raises(ValidationError):
            grid.cell_of(*point)
        with pytest.raises(ValidationError):
            grid.cells_of([121.5, point[0]], [31.2, point[1]])

    def test_bad_cell_id_rejected(self):
        grid = CityGrid()
        with pytest.raises(ValidationError):
            grid.center_of(-1)
        with pytest.raises(ValidationError):
            grid.center_of(grid.n_cells)

    def test_row_col_roundtrip(self):
        grid = CityGrid()
        cell = 3 * grid.n_cols + 7
        assert grid.row_col(cell) == (3, 7)


class TestDistance:
    def test_zero_for_same_cell(self):
        grid = CityGrid()
        assert grid.distance_km(5, 5) == 0.0

    def test_adjacent_cells_one_cell_apart(self):
        grid = CityGrid()
        assert grid.distance_km(0, 1) == pytest.approx(grid.cell_km)
        assert grid.distance_km(0, grid.n_cols) == pytest.approx(grid.cell_km)

    def test_symmetric(self):
        grid = CityGrid()
        assert grid.distance_km(2, 40) == grid.distance_km(40, 2)

    def test_diagonal(self):
        grid = CityGrid()
        assert grid.distance_km(0, grid.n_cols + 1) == pytest.approx(
            grid.cell_km * 2**0.5
        )

    def test_matrix_equals_distance_km(self):
        """Every pair of a full row, a full column and the diagonal, by ==."""
        grid = CityGrid()
        row = [grid.n_cols * 3 + col for col in range(grid.n_cols)]
        column = [r * grid.n_cols + 5 for r in range(grid.n_rows)]
        diagonal = [d * grid.n_cols + d for d in range(min(grid.n_rows, grid.n_cols))]
        cells = row + column + diagonal
        matrix = grid.distance_matrix(cells)
        assert matrix.shape == (len(cells), len(cells))
        for i, a in enumerate(cells):
            for j, b in enumerate(cells):
                assert matrix[i, j] == grid.distance_km(a, b), (a, b)

    def test_matrix_rejects_bad_cell(self):
        grid = CityGrid()
        for bad in (-1, grid.n_cells):
            with pytest.raises(ValidationError):
                grid.distance_matrix([0, bad])


class TestNeighborhood:
    def test_radius_zero_is_self(self):
        grid = CityGrid()
        assert grid.neighborhood(10, 0) == [10]

    def test_interior_radius_one_has_nine_cells(self):
        grid = CityGrid()
        center = grid.n_cols + 1  # second row, second column: fully interior
        assert len(grid.neighborhood(center, 1)) == 9

    def test_corner_clipped(self):
        grid = CityGrid()
        assert len(grid.neighborhood(0, 1)) == 4

    def test_contains_center(self):
        grid = CityGrid()
        assert 100 in grid.neighborhood(100, 3)

    def test_negative_radius_rejected(self):
        grid = CityGrid()
        with pytest.raises(ValidationError):
            grid.neighborhood(0, -1)

    def test_all_within_chebyshev_radius(self):
        grid = CityGrid()
        center = 5 * grid.n_cols + 5
        c_row, c_col = grid.row_col(center)
        for cell in grid.neighborhood(center, 2):
            row, col = grid.row_col(cell)
            assert max(abs(row - c_row), abs(col - c_col)) <= 2
