"""Performance layer: batch counterfactual pricing + instrumentation.

This package is the *reward determination* stage of both mechanisms — the
only pricing path they run — and changes no output bit against the
paper-literal pricing oracles of :mod:`repro.core.critical`:

* :class:`BatchPricer` — multi-task critical bids via shared-prefix greedy
  replay (Algorithm 5 without the per-winner instance copies and full
  reruns); its oracle is
  :func:`~repro.core.critical.critical_contribution_multi`.
* :class:`SingleTaskPricer` / :func:`critical_contribution_single_fast` —
  single-task critical bids via memoized monotone FPTAS probes (static
  subproblem cache, shared-prefix DP snapshots, Lemma-1 verdict memo);
  its oracle is :func:`~repro.core.critical.critical_contribution_single`.
* :class:`PerfCounters` — work counters proving where the savings come
  from; surfaced on mechanism outcomes and dumped to
  ``BENCH_pricing.json`` by ``benchmarks/bench_pricing.py``.

The dependency is strictly one-way: :mod:`repro.core` never imports
:mod:`repro.perf` (the mechanisms lazy-import it inside ``run()``), so the
core algorithms remain usable without this package.
"""

from .batch_pricer import BatchPricer
from .instrumentation import PerfCounters
from .single_pricer import (
    SingleTaskPricer,
    critical_contribution_single_fast,
)

__all__ = [
    "BatchPricer",
    "PerfCounters",
    "SingleTaskPricer",
    "critical_contribution_single_fast",
]
