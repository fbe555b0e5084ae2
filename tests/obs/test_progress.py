"""Tests for progress heartbeats (repro.obs.progress)."""

from __future__ import annotations

import pytest

from repro.obs.progress import PROGRESS_SUFFIX, Heartbeat, format_progress
from repro.obs.tracing import Tracer

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def progress_events(tracer: Tracer) -> list[dict]:
    return [
        r
        for r in tracer.records
        if r["type"] == "event" and r["name"].endswith(PROGRESS_SUFFIX)
    ]


class TestHeartbeat:
    def test_emits_every_n_units(self):
        tracer = Tracer()
        clock = FakeClock()
        beat = Heartbeat("pricing", total=10, tracer=tracer, every_n=5, clock=clock)
        for _ in range(4):
            clock.advance(0.01)
            beat.update()
        assert progress_events(tracer) == []
        clock.advance(0.01)
        beat.update()  # 5th unit trips the count threshold
        (event,) = progress_events(tracer)
        assert event["name"] == "pricing" + PROGRESS_SUFFIX
        assert event["done"] == 5 and event["total"] == 10
        assert event["rate"] == pytest.approx(100.0)
        assert event["eta_seconds"] == pytest.approx(0.05)
        assert "final" not in event

    def test_begin_rearms_rate_base_after_setup(self):
        """Rate/ETA must meter the work loop, not pool/pickling setup that
        happens between construction and the first dispatched unit."""
        tracer = Tracer()
        clock = FakeClock()
        beat = Heartbeat("pricing", total=20, tracer=tracer, every_n=10, clock=clock)
        clock.advance(100.0)  # expensive setup: worker pool, pickled snapshots
        beat.begin()
        clock.advance(10.0)
        beat.update(advance=10)
        (event,) = progress_events(tracer)
        # 10 units in the 10 seconds since begin() — not in 110 seconds.
        assert event["rate"] == pytest.approx(1.0)
        assert event["eta_seconds"] == pytest.approx(10.0)
        assert event["elapsed_seconds"] == pytest.approx(10.0)

    def test_begin_does_not_reset_done_units(self):
        tracer = Tracer()
        clock = FakeClock()
        beat = Heartbeat("pricing", total=4, tracer=tracer, every_n=100, clock=clock)
        beat.update()
        beat.begin()
        clock.advance(1.0)
        beat.finish()
        (event,) = progress_events(tracer)
        assert event["done"] == 1

    def test_emits_on_elapsed_time_even_without_units(self):
        tracer = Tracer()
        clock = FakeClock()
        beat = Heartbeat(
            "dp", total=1000, tracer=tracer, every_n=500, every_seconds=5.0, clock=clock
        )
        clock.advance(6.0)  # slow phase: one unit, but past the time threshold
        beat.update()
        (event,) = progress_events(tracer)
        assert event["done"] == 1

    def test_finish_always_emits_final(self):
        tracer = Tracer()
        clock = FakeClock()
        beat = Heartbeat("cells", total=3, tracer=tracer, every_n=100, clock=clock)
        clock.advance(1.0)
        beat.update(3)
        beat.finish()
        events = progress_events(tracer)
        assert events[-1]["final"] is True
        assert events[-1]["done"] == 3

    def test_extra_attrs_attached_to_every_event(self):
        tracer = Tracer()
        beat = Heartbeat(
            "pricing", total=1, tracer=tracer, every_n=1, mechanism="multi_task"
        )
        beat.update()
        (event,) = progress_events(tracer)
        assert event["mechanism"] == "multi_task"

    def test_unknown_total_omits_total_and_eta(self):
        tracer = Tracer()
        clock = FakeClock()
        beat = Heartbeat("scan", tracer=tracer, every_n=1, clock=clock)
        clock.advance(0.5)
        beat.update()
        (event,) = progress_events(tracer)
        assert "total" not in event and "eta_seconds" not in event

    def test_none_tracer_is_a_no_op(self):
        beat = Heartbeat("quiet", total=2, every_n=1)
        beat.update()
        beat.finish()  # nothing to assert beyond "does not raise"
        assert beat.done == 1


class TestFormatProgress:
    def test_with_total_and_eta(self):
        line = format_progress("pricing", 5, 10, 100.0, 0.05)
        assert "pricing" in line and "5/10" in line

    def test_without_total(self):
        line = format_progress("scan", 7, None, None, None)
        assert "scan" in line and "7" in line
