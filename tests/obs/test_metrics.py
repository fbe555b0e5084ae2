"""Tests for the unified metrics registry and its producers."""

from __future__ import annotations

import pytest

from repro.core.multi_task import MultiTaskMechanism
from repro.core.single_task import SingleTaskMechanism
from repro.core.types import AuctionInstance, SingleTaskInstance, Task, UserType
from repro.obs import MetricsRegistry
from repro.perf.instrumentation import PerfCounters
from repro.simulation.engine import ExecutionSimulator

pytestmark = pytest.mark.obs


def small_multi_instance() -> AuctionInstance:
    users = [
        UserType(1, cost=2.0, pos={0: 0.6, 1: 0.4}),
        UserType(2, cost=3.0, pos={0: 0.5}),
        UserType(3, cost=1.5, pos={1: 0.7}),
        UserType(4, cost=4.0, pos={0: 0.3, 1: 0.3}),
    ]
    return AuctionInstance([Task(0, 0.7), Task(1, 0.7)], users)


def small_single_instance() -> SingleTaskInstance:
    return SingleTaskInstance(
        requirement=1.0,
        user_ids=(1, 2, 3),
        costs=(3.0, 2.0, 4.0),
        contributions=(0.9, 0.8, 0.7),
    )


class TestPrimitives:
    def test_counter_increments_and_rejects_negative(self):
        registry = MetricsRegistry()
        c = registry.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("level")
        g.set(1.0)
        g.set(0.25)
        assert g.value == 0.25

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")


class TestProducers:
    def test_absorb_perf_counters_and_stages(self):
        """Counters land as ``perf.*``; the stage-timer dict that older
        snapshots carried is skipped (stage time comes from spans)."""
        counters = PerfCounters()
        counters.greedy_iterations = 5
        registry = MetricsRegistry()
        registry.absorb_perf(counters)
        older = {"greedy_iterations": 2, "stage_seconds": {"winner_determination": 0.5}}
        registry.absorb_perf(older)
        snap = registry.to_dict()
        assert snap["counters"]["perf.greedy_iterations"] == 7
        assert not any(name.startswith("stage.") for name in snap["histograms"])
        assert "perf.stage_seconds" not in snap["counters"]

    def test_observe_outcome_multi(self):
        outcome = MultiTaskMechanism().run(small_multi_instance())
        registry = MetricsRegistry()
        registry.observe_outcome(outcome)
        snap = registry.to_dict()
        assert snap["counters"]["auction.runs"] == 1
        assert snap["histograms"]["auction.winners"]["count"] == 1
        # Per-task achieved PoS: one observation per task.
        assert snap["histograms"]["auction.achieved_pos"]["count"] == 2
        assert "auction.payment_spread" in snap["histograms"]
        # PerfCounters from the outcome were absorbed too.
        assert snap["counters"]["perf.greedy_iterations"] > 0

    def test_observe_outcome_single_scalar_pos(self):
        outcome = SingleTaskMechanism(epsilon=0.5).run(small_single_instance())
        registry = MetricsRegistry()
        registry.observe_outcome(outcome)
        snap = registry.to_dict()
        assert snap["histograms"]["auction.achieved_pos"]["count"] == 1

    def test_simulator_feeds_registry(self):
        registry = MetricsRegistry()
        instance = small_multi_instance()
        outcome = MultiTaskMechanism().run(instance)
        sim = ExecutionSimulator(seed=3, metrics=registry)
        for _ in range(4):
            sim.simulate_multi(instance, outcome)
        snap = registry.to_dict()
        assert snap["counters"]["execution.runs"] == 4
        assert snap["counters"]["execution.tasks_total"] == 8
        assert 0.0 <= snap["gauges"]["execution.completion_rate"] <= 1.0
        assert snap["counters"]["execution.settlement_total"] == pytest.approx(
            snap["histograms"]["execution.platform_spend"]["total"]
        )

    def test_format_mentions_every_family(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(2)
        text = registry.format()
        assert "counter" in text and "gauge" in text and "histogram" in text


class TestMerge:
    def test_merge_is_equivalent_to_direct_observation(self):
        direct = MetricsRegistry()
        part_a, part_b = MetricsRegistry(), MetricsRegistry()
        for value, registry in ((1.0, part_a), (3.0, part_b), (2.0, part_b)):
            direct.histogram("h").observe(value)
            registry.histogram("h").observe(value)
            direct.counter("c").inc(value)
            registry.counter("c").inc(value)
            direct.gauge("g").set(value)
            registry.gauge("g").set(value)
        merged = MetricsRegistry()
        merged.merge(part_a.to_dict())
        merged.merge(part_b.to_dict())
        assert merged.to_dict() == direct.to_dict()

    def test_merge_empty_histogram_is_noop(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(5.0)
        registry.merge({"histograms": {"h": {"count": 0, "total": 0.0,
                                             "min": None, "max": None, "mean": None}}})
        assert registry.to_dict()["histograms"]["h"]["count"] == 1

    def test_merge_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.merge({"gauges": {"g": 7.0}})
        assert registry.to_dict()["gauges"]["g"] == 7.0

    def test_merge_into_empty_registry_reproduces_snapshot(self):
        source = MetricsRegistry()
        source.counter("auction.runs").inc(2)
        source.histogram("auction.winners").observe(4)
        target = MetricsRegistry()
        target.merge(source.to_dict())
        assert target.to_dict() == source.to_dict()
