"""Lightweight performance instrumentation for the pricing engine.

:class:`PerfCounters` is a plain mutable bag of counters plus per-stage
wall-clock timers.  The core algorithms (``greedy_allocation``,
``fptas_min_knapsack``) accept it duck-typed — they only touch attributes —
so :mod:`repro.core` never imports :mod:`repro.perf` and the dependency
stays one-way.

The counters are what turn "the fast path is faster" from a claim into a
recorded trajectory: ``greedy_prefix_iterations_reused`` proves the
shared-prefix replay actually skipped work, ``fptas_dp_cells_reused`` and
``wins_cache_hits`` do the same for the memoized single-task search, and
``stage_seconds`` splits winner determination from reward determination.
``benchmarks/bench_pricing.py`` dumps all of it to ``BENCH_pricing.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Counters and stage timers accumulated across one mechanism run.

    Attributes:
        greedy_iterations: Greedy selection iterations actually executed
            (each costs O(n·t) vector work), across the main run and every
            counterfactual replay.
        greedy_prefix_iterations_reused: Counterfactual iterations *not*
            executed because the shared-prefix invariant let the replay
            resume from a snapshot (the speedup evidence for Algorithm 5).
        counterfactual_runs: Number of counterfactual prices computed.
        fptas_subproblems: FPTAS DP subproblems solved.
        fptas_subproblems_cached: Subproblems answered from the
            static-subproblem cache without running the DP.
        fptas_dp_cells: DP cells computed (rows × table width).
        fptas_dp_cells_reused: DP cells skipped via cached subproblems and
            shared-prefix DP snapshots.
        wins_evaluations: ``wins(q)`` probes asked by critical-bid searches.
        wins_cache_hits: Probes answered from the monotone verdict memo or
            the original-allocation cache instead of a fresh FPTAS run.
        greedy_rows_recomputed: Rows whose capped gain the vectorized greedy
            actually recomputed (the incremental kernel's work metric; the
            dense kernel rescans ``n`` rows per iteration).
        pricing_early_exits: Counterfactual replays terminated by the
            proven early-exit certificate (``method="threshold"`` only —
            the replay's remaining iterations were shown to be incapable of
            changing the price; see
            :class:`repro.perf.batch_pricer.BatchPricer`).
        stage_seconds: Wall-clock per named stage (e.g.
            ``winner_determination``, ``reward_determination``).
    """

    greedy_iterations: int = 0
    greedy_prefix_iterations_reused: int = 0
    counterfactual_runs: int = 0
    fptas_subproblems: int = 0
    fptas_subproblems_cached: int = 0
    fptas_dp_cells: int = 0
    fptas_dp_cells_reused: int = 0
    wins_evaluations: int = 0
    wins_cache_hits: int = 0
    greedy_rows_recomputed: int = 0
    pricing_early_exits: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a named stage; re-entering the same name accumulates."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + elapsed

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold another counter set into this one (used by worker fan-out)."""
        for f in fields(self):
            if f.name == "stage_seconds":
                for stage, seconds in other.stage_seconds.items():
                    self.stage_seconds[stage] = (
                        self.stage_seconds.get(stage, 0.0) + seconds
                    )
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def to_dict(self) -> dict:
        """JSON-ready snapshot (what the benchmark records)."""
        out: dict = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "stage_seconds"
        }
        out["stage_seconds"] = dict(self.stage_seconds)
        return out
