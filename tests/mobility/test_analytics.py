"""Tests for the trace analytics module."""

from collections import Counter

import pytest

from repro.core.errors import ValidationError
from repro.mobility.analytics import (
    cell_popularity,
    revisit_rate,
    support_size_distribution,
    trace_summary,
)
from repro.mobility.grid import CityGrid
from repro.mobility.records import EventType, TraceRecord
from repro.mobility.synthetic import FleetConfig, SyntheticTaxiFleet


@pytest.fixture(scope="module")
def fleet_records():
    fleet = SyntheticTaxiFleet(
        CityGrid(), FleetConfig(n_taxis=15, events_per_taxi=60), seed=3
    )
    return fleet, fleet.generate_records()


class TestTraceSummary:
    def test_counts(self, fleet_records):
        _, records = fleet_records
        summary = trace_summary(records)
        assert summary.n_records == 15 * 60
        assert summary.n_taxis == 15
        assert summary.events_per_taxi_mean == pytest.approx(60.0)

    def test_pickup_fraction_half(self, fleet_records):
        """Events alternate pickup/dropoff, so pickups are exactly half."""
        _, records = fleet_records
        summary = trace_summary(records)
        assert summary.pickup_fraction == pytest.approx(0.5)

    def test_headway_near_configured_mean(self, fleet_records):
        fleet, records = fleet_records
        summary = trace_summary(records)
        assert summary.mean_headway_s == pytest.approx(
            fleet.config.mean_headway_s, rel=0.2
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            trace_summary([])


class TestSupportSizes:
    def test_matches_fleet_config(self, fleet_records):
        from repro.mobility.dataset import sequences_from_records

        fleet, records = fleet_records
        sequences = sequences_from_records(records, fleet.grid)
        histogram = support_size_distribution(sequences)
        low, high = fleet.config.support_size_range
        # Observed supports can be smaller than generated ones (not every
        # support cell is visited in a finite walk) but never larger.
        assert max(histogram) <= high
        assert sum(histogram.values()) == 15

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            support_size_distribution({})


class TestCellPopularity:
    def test_returns_top_k(self, fleet_records):
        fleet, records = fleet_records
        top = cell_popularity(records, fleet.grid, top=5)
        assert len(top) == 5
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_counts_sum_to_records(self, fleet_records):
        fleet, records = fleet_records
        everything = cell_popularity(records, fleet.grid, top=10_000)
        assert sum(count for _, count in everything) == len(records)

    def test_equals_per_record_cell_of(self, fleet_records):
        fleet, records = fleet_records
        expected = Counter(fleet.grid.cell_of(r.lon, r.lat) for r in records)
        assert cell_popularity(records, fleet.grid, top=10_000) == expected.most_common(10_000)

    def test_bad_top_rejected(self, fleet_records):
        fleet, records = fleet_records
        with pytest.raises(ValidationError):
            cell_popularity(records, fleet.grid, top=0)


class TestRevisitRate:
    def test_pure_loop_high_rate(self):
        # 1,2,1,2,...: after the first two moves everything is a revisit.
        rate = revisit_rate({0: [1, 2] * 10})
        assert rate == pytest.approx((19 - 1) / 19)

    def test_no_revisits(self):
        assert revisit_rate({0: [1, 2, 3, 4]}) == 0.0

    def test_synthetic_fleet_is_predictable(self, fleet_records):
        """Small supports + long walks => high revisit rate (Fig 3's basis)."""
        from repro.mobility.dataset import sequences_from_records

        fleet, records = fleet_records
        sequences = sequences_from_records(records, fleet.grid)
        assert revisit_rate(sequences) > 0.6

    def test_no_moves_rejected(self):
        with pytest.raises(ValidationError):
            revisit_rate({0: [1]})
