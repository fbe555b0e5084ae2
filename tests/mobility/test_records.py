"""Tests for the trace record schema and CSV round-trips."""

import pytest

from repro.core.errors import ValidationError
from repro.mobility.records import (
    EventType,
    TraceRecord,
    read_trace_csv,
    write_trace_csv,
)


def sample_records():
    return [
        TraceRecord(0, 10.0, 121.45, 31.22, EventType.PICKUP),
        TraceRecord(0, 900.5, 121.50, 31.25, EventType.DROPOFF),
        TraceRecord(7, 12.25, 121.30, 31.10, EventType.PICKUP),
    ]


class TestTraceRecord:
    def test_fields(self):
        record = TraceRecord(3, 5.0, 121.4, 31.2, EventType.PICKUP)
        assert record.taxi_id == 3
        assert record.event is EventType.PICKUP

    def test_negative_taxi_id_rejected(self):
        with pytest.raises(ValidationError):
            TraceRecord(-1, 5.0, 121.4, 31.2, EventType.PICKUP)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError):
            TraceRecord(1, -5.0, 121.4, 31.2, EventType.PICKUP)

    @pytest.mark.parametrize("timestamp", [float("nan"), float("inf")])
    def test_non_finite_timestamp_rejected(self, timestamp):
        with pytest.raises(ValidationError):
            TraceRecord(1, timestamp, 121.4, 31.2, EventType.PICKUP)

    def test_event_type_values(self):
        assert EventType("pickup") is EventType.PICKUP
        assert EventType("dropoff") is EventType.DROPOFF


class TestCsvRoundtrip:
    def test_write_returns_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert write_trace_csv(sample_records(), path) == 3

    def test_roundtrip_preserves_records(self, tmp_path):
        path = tmp_path / "trace.csv"
        original = sample_records()
        write_trace_csv(original, path)
        loaded = list(read_trace_csv(path))
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.taxi_id == b.taxi_id
            assert a.timestamp == pytest.approx(b.timestamp, abs=1e-3)
            assert a.lon == pytest.approx(b.lon, abs=1e-6)
            assert a.lat == pytest.approx(b.lat, abs=1e-6)
            assert a.event == b.event

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv([], path)
        assert list(read_trace_csv(path)) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValidationError):
            list(read_trace_csv(path))

    def test_nan_timestamp_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("taxi_id,timestamp,lon,lat,event\n1,nan,121.4,31.2,pickup\n")
        with pytest.raises(ValidationError):
            list(read_trace_csv(path))

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("taxi_id,timestamp,lon,lat,event\n1,2.0\n")
        with pytest.raises(ValidationError):
            list(read_trace_csv(path))

    def test_reader_is_lazy(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_records(), path)
        iterator = read_trace_csv(path)
        first = next(iterator)
        assert first.taxi_id == 0
