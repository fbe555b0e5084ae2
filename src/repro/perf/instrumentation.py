"""Lightweight performance instrumentation for the pricing engine.

:class:`PerfCounters` is a plain mutable bag of work counters.  The core
algorithms (``greedy_allocation``, ``fptas_min_knapsack``) accept it
duck-typed — they only touch attributes — so :mod:`repro.core` never
imports :mod:`repro.perf` and the dependency stays one-way.

The counters are what turn "the fast path is faster" from a claim into a
recorded trajectory: ``greedy_prefix_iterations_reused`` proves the
shared-prefix replay actually skipped work, and ``fptas_dp_cells_reused``
and ``wins_cache_hits`` do the same for the memoized single-task search.
``benchmarks/bench_pricing.py`` dumps them to ``BENCH_pricing.json``.
Time has one source, the tracer: both mechanisms open
``winner_determination`` and ``reward_determination`` spans, and
``repro report`` sums span durations per name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Work counters accumulated across one mechanism run.

    Attributes:
        greedy_iterations: Greedy selection iterations actually executed,
            across the main run and every counterfactual replay.
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
        greedy_rows_recomputed: Rows whose capped gain the incremental
            greedy actually recomputed (its work metric; a dense rescan
            would touch ``n`` rows per iteration).
        pricing_early_exits: Counterfactual replays terminated by the
            proven early-exit certificate (``method="threshold"`` only —
            the replay's remaining iterations were shown to be incapable of
            changing the price; see
            :class:`repro.perf.batch_pricer.BatchPricer`).
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

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold another counter set into this one (used by worker fan-out)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def to_dict(self) -> dict:
        """JSON-ready snapshot (what the benchmark records)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
