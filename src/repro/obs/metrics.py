"""Unified metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` absorbs every producer in the repo:

* :meth:`MetricsRegistry.absorb_perf` folds a
  :class:`repro.perf.instrumentation.PerfCounters` snapshot in — the
  pricing-engine counters become ``perf.*`` counters;
* :meth:`MetricsRegistry.observe_outcome` records mechanism-level metrics
  from a cleared auction (winner count, platform/social cost, per-task
  achieved PoS, payment spread across the EC contracts);
* :meth:`MetricsRegistry.observe_execution` records simulation-level
  metrics from a realised execution (settlement totals, task completion
  rates, realised utilities) — :class:`repro.simulation.engine.
  ExecutionSimulator` calls it automatically when given a registry.

Everything is duck-typed reads: this module imports nothing from
``repro.core`` / ``repro.perf`` / ``repro.simulation``, so any layer can
hold a registry without import cycles.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values (count/total/min/max/mean)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's :meth:`summary` snapshot into this one.

        Count/total add; min/max extend the envelope.  Used by
        :meth:`MetricsRegistry.merge` to combine per-worker-cell histograms
        into the parent registry without shipping raw observations.
        """
        count = int(summary.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(summary.get("total", 0.0))
        if summary.get("min") is not None:
            self.min = min(self.min, float(summary["min"]))
        if summary.get("max") is not None:
            self.max = max(self.max, float(summary["max"]))


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Get-or-create accessors
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_unique(name, self._counters)
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_unique(name, self._gauges)
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            self._check_unique(name, self._histograms)
            return self._histograms.setdefault(name, Histogram(name))

    def _check_unique(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(f"metric name {name!r} already used with another type")

    # ------------------------------------------------------------------ #
    # Producers
    # ------------------------------------------------------------------ #

    def absorb_perf(self, perf: Any, prefix: str = "perf") -> None:
        """Fold a ``PerfCounters`` (or its ``to_dict()``) into the registry.

        Integer counters land as ``<prefix>.<field>`` counters.  A
        dict-valued field, such as the stage timers of older snapshots, is
        skipped: stage time comes from tracer spans.
        """
        snapshot = perf if isinstance(perf, dict) else perf.to_dict()
        for key, value in snapshot.items():
            if not isinstance(value, dict):
                self.counter(f"{prefix}.{key}").inc(value)

    def observe_outcome(self, outcome: Any) -> None:
        """Record mechanism-level metrics from a cleared auction outcome.

        Works for both :class:`~repro.core.single_task.SingleTaskOutcome`
        (scalar ``achieved_pos``) and
        :class:`~repro.core.multi_task.MultiTaskOutcome` (per-task dict);
        only duck-typed attributes are read.
        """
        self.counter("auction.runs").inc()
        self.histogram("auction.winners").observe(len(outcome.winners))
        self.histogram("auction.social_cost").observe(outcome.social_cost)
        achieved = outcome.achieved_pos
        values: Iterable[float] = (
            achieved.values() if isinstance(achieved, dict) else (achieved,)
        )
        for value in values:
            self.histogram("auction.achieved_pos").observe(value)
        if outcome.rewards:
            payments = [r.success_reward for r in outcome.rewards.values()]
            self.histogram("auction.payment_spread").observe(max(payments) - min(payments))
            self.histogram("auction.expected_spend").observe(sum(payments))
        perf = getattr(outcome, "perf", None)
        if perf is not None:
            self.absorb_perf(perf)

    def observe_execution(self, result: Any) -> None:
        """Record simulation-level metrics from one realised execution."""
        self.counter("execution.runs").inc()
        self.counter("execution.settlement_total").inc(max(0.0, result.platform_spend))
        self.histogram("execution.platform_spend").observe(result.platform_spend)
        completed = sum(1 for done in result.task_completed.values() if done)
        total = len(result.task_completed)
        self.counter("execution.tasks_completed").inc(completed)
        self.counter("execution.tasks_total").inc(total)
        done_so_far = self._counters["execution.tasks_completed"].value
        all_so_far = self._counters["execution.tasks_total"].value
        if all_so_far:
            self.gauge("execution.completion_rate").set(done_so_far / all_so_far)
        for utility in result.utilities.values():
            self.histogram("execution.realized_utility").observe(utility)

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`to_dict` snapshot into this one.

        The cross-process analogue of ``PerfCounters.merge``: counters add,
        gauges take the incoming value (last write wins, matching serial
        semantics where later observations overwrite), histogram summaries
        combine via :meth:`Histogram.merge_summary`.  The parallel runner
        snapshots each cell's registry in its worker and merges the
        snapshots here in cell-index order, so the parent registry ends up
        identical to a serial run's.

        Args:
            snapshot: A ``MetricsRegistry.to_dict()``-shaped mapping with
                ``counters`` / ``gauges`` / ``histograms`` keys (each
                optional).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_summary(summary)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric family."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.summary() for n, h in sorted(self._histograms.items())},
        }

    def format(self) -> str:
        """Human-readable one-metric-per-line dump."""
        lines = []
        for name, c in sorted(self._counters.items()):
            lines.append(f"counter   {name} = {c.value:g}")
        for name, g in sorted(self._gauges.items()):
            lines.append(f"gauge     {name} = {g.value:g}")
        for name, h in sorted(self._histograms.items()):
            mean = f"{h.mean:.6g}" if h.count else "n/a"
            lines.append(
                f"histogram {name}: count={h.count} total={h.total:.6g} mean={mean}"
            )
        return "\n".join(lines)
