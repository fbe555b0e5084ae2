"""Tests for dataset assembly: records → sequences → train/test splits."""

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.mobility.dataset import (
    TraceDataset,
    sequences_from_records,
    split_sequences,
)
from repro.mobility.grid import CityGrid
from repro.mobility.records import EventType, TraceRecord


def make_records(grid):
    """Taxi 0 bounces between two cells; taxi 1 sits in one cell."""
    cell_a = grid.center_of(100)
    cell_b = grid.center_of(101)
    records = []
    for i in range(6):
        lon, lat = cell_a if i % 2 == 0 else cell_b
        records.append(TraceRecord(0, float(i * 100), lon, lat, EventType.PICKUP))
    lon, lat = cell_a
    for i in range(4):
        records.append(TraceRecord(1, float(i * 50), lon, lat, EventType.DROPOFF))
    return records


class TestSequences:
    def test_sequence_cells(self):
        grid = CityGrid()
        sequences = sequences_from_records(make_records(grid), grid)
        assert sequences[0] == [100, 101, 100, 101, 100, 101]

    def test_consecutive_duplicates_collapsed(self):
        grid = CityGrid()
        sequences = sequences_from_records(make_records(grid), grid)
        assert sequences[1] == [100]  # all four events in the same cell

    def test_orders_by_timestamp(self):
        grid = CityGrid()
        lon_a, lat_a = grid.center_of(100)
        lon_b, lat_b = grid.center_of(101)
        records = [
            TraceRecord(0, 200.0, lon_b, lat_b, EventType.PICKUP),
            TraceRecord(0, 100.0, lon_a, lat_a, EventType.PICKUP),
        ]
        sequences = sequences_from_records(records, grid)
        assert sequences[0] == [100, 101]

    def test_empty_input(self):
        assert sequences_from_records([], CityGrid()) == {}

    def test_equals_per_taxi_tuple_sort(self):
        """Shuffled records with tied timestamps, against the per-taxi sort
        of (timestamp, cell) pairs the array path replaced."""
        grid = CityGrid()
        rng = np.random.default_rng(8)
        records = [
            TraceRecord(
                int(rng.integers(6)),
                float(rng.integers(20)),
                *grid.center_of(int(rng.choice([100, 101, 102, 150]))),
                EventType.PICKUP,
            )
            for _ in range(400)
        ]
        expected: dict[int, list[int]] = {}
        for record in records:
            expected.setdefault(record.taxi_id, []).append(
                (record.timestamp, grid.cell_of(record.lon, record.lat))
            )
        for taxi_id, events in expected.items():
            cells = [cell for _, cell in sorted(events)]
            expected[taxi_id] = [c for i, c in enumerate(cells) if i == 0 or cells[i - 1] != c]
        sequences = sequences_from_records(iter(records), grid)
        assert sequences == expected
        assert list(sequences) == list(expected)

    def test_taxis_in_first_appearance_order(self):
        grid = CityGrid()
        lon, lat = grid.center_of(100)
        records = [
            TraceRecord(taxi, float(t), lon, lat, EventType.PICKUP)
            for t, taxi in enumerate([5, 2, 5, 9, 2])
        ]
        assert list(sequences_from_records(records, grid)) == [5, 2, 9]

    @pytest.mark.parametrize(
        "point", [(float("nan"), 31.2), (121.4, float("nan")), (120.0, 31.2)]
    )
    def test_unmappable_point_rejected(self, point):
        grid = CityGrid()
        lon, lat = grid.center_of(100)
        records = [
            TraceRecord(0, 0.0, lon, lat, EventType.PICKUP),
            TraceRecord(0, 1.0, *point, EventType.DROPOFF),
        ]
        with pytest.raises(ValidationError):
            sequences_from_records(records, grid)


class TestSplit:
    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            split_sequences({0: [1, 2, 3]}, train_fraction=0.0)
        with pytest.raises(ValidationError):
            split_sequences({0: [1, 2, 3]}, train_fraction=1.0)

    def test_split_counts(self):
        sequences = {0: list(range(10))}
        train, held_out = split_sequences(sequences, train_fraction=0.8)
        assert len(train[0]) == 8
        # test tail overlaps one element: transitions 7->8, 8->9
        assert len(held_out) == 2

    def test_held_out_pairs_are_true_transitions(self):
        sequences = {0: [1, 2, 3, 4, 5]}
        train, held_out = split_sequences(sequences, train_fraction=0.6)
        for pair in held_out:
            idx = sequences[0].index(pair.current_cell)
            assert sequences[0][idx + 1] == pair.next_cell

    def test_train_prefix_preserved(self):
        sequences = {0: [9, 8, 7, 6, 5]}
        train, _ = split_sequences(sequences, train_fraction=0.6)
        assert train[0] == [9, 8, 7]

    def test_minimum_training_prefix(self):
        """Even tiny sequences keep at least two training elements."""
        train, held_out = split_sequences({0: [1, 2, 3]}, train_fraction=0.1)
        assert len(train[0]) >= 2


class TestTraceDataset:
    def test_from_records(self):
        grid = CityGrid()
        dataset = TraceDataset.from_records(make_records(grid), grid)
        assert dataset.n_taxis == 2
        assert dataset.n_transitions == 5  # taxi 0 only (taxi 1 collapsed)

    def test_split_is_consistent(self):
        grid = CityGrid()
        dataset = TraceDataset.from_records(make_records(grid), grid, train_fraction=0.5)
        total_train = sum(len(s) for s in dataset.train.values())
        assert total_train >= 2
        assert all(p.taxi_id in dataset.sequences for p in dataset.held_out)
