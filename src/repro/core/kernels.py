"""Kernel selection for the mechanism hot loops.

The multi-task greedy — winner determination and the counterfactual
replays of critical-payment pricing — ships two interchangeable compute
kernels with bit-identical outputs:

* ``"vectorized"`` (default) — the greedy runs on a sparse CSR
  contribution matrix with incremental gain maintenance
  (:mod:`repro.core.contrib_matrix`), sized for ``n = 10^5`` and beyond.
* ``"reference"`` — the dense full-rescan greedy over an ``n × t``
  matrix, kept as the parity oracle and for the scaling benchmark's
  baseline.

The single-task FPTAS takes no kernel: it always runs the dense
cost-indexed row DP of :mod:`repro.core.fptas`.

A call site's ``kernel=`` keyword is the only switch: ``None`` means
:data:`DEFAULT_KERNEL`, and no process global or environment variable
can change what a call computes.  The workload engine (Markov fitting,
top-m prediction, instance generation) takes the same two names through
its own ``kernel=`` keywords (:func:`resolve_workload_kernel`).  The
property-test matrices in ``tests/perf/test_kernels_parity.py`` and
``tests/perf/test_workload_parity.py`` assert bit-identical outputs
across the two kernels.

Pricing fan-out across winners is chosen the same way, by the
``max_workers=`` keyword (:func:`resolve_price_workers`): a positive
count, or ``"auto"`` / ``None`` for a cpu-count heuristic.  The resolved
spec records whether the count came from the heuristic, because the
batch pricer only auto-engages fan-out on auctions large enough to
amortise thread startup, while an explicit count always fans out.
Fan-out runs on threads: numpy releases the GIL on the wide reductions.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ValidationError

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
    "resolve_workload_kernel",
    "PriceWorkers",
    "resolve_price_workers",
    "resolve_price_backend",
]

#: The recognised kernel names.
KERNELS = ("vectorized", "reference")

#: Used when a call site passes no ``kernel=``.
DEFAULT_KERNEL = "vectorized"


def resolve_kernel(kernel: str | None = None) -> str:
    """The kernel a call site should use: ``kernel``, or
    :data:`DEFAULT_KERNEL` for ``None``.  Raises :class:`ValidationError`
    on an unrecognised name."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise ValidationError(
            f"unknown kernel argument {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


#: The workload engine's kernels carry the same names and default as the
#: mechanism's; each side is still chosen by its own ``kernel=`` keyword,
#: so a parity bisection can pin one side at a time.
resolve_workload_kernel = resolve_kernel


#: Cap on the auto-sized worker count; beyond this the replays contend on
#: memory bandwidth rather than compute.
_AUTO_WORKER_CAP = 8


class PriceWorkers(NamedTuple):
    """A resolved pricing fan-out spec.

    ``count`` is the worker count to use (≥ 1).  ``auto`` records that the
    count came from the cpu heuristic rather than an explicit request —
    the batch pricer then keeps small auctions sequential (pool startup
    would dominate) while always honouring an explicit count.
    """

    count: int
    auto: bool


def resolve_price_workers(workers: int | str | None = None) -> PriceWorkers:
    """The pricing fan-out a call site should use.

    ``None`` and ``"auto"`` resolve to ``min(cpu_count, 8)`` with
    ``auto=True``; a positive integer resolves to itself with
    ``auto=False``.  Raises :class:`ValidationError` on anything else.
    """
    if workers is None or workers == "auto":
        return PriceWorkers(max(1, min(os.cpu_count() or 1, _AUTO_WORKER_CAP)), True)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(
            f"invalid price workers argument {workers!r}; "
            "expected a positive integer or 'auto'"
        )
    return PriceWorkers(workers, False)


def resolve_price_backend(backend: str | None = None) -> str:
    """The fan-out backend: always ``"thread"``, the only one there is.
    Raises :class:`ValidationError` on any other name."""
    if backend not in (None, "thread"):
        raise ValidationError(
            f"unknown price backend argument {backend!r}; expected 'thread'"
        )
    return "thread"
