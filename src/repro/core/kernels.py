"""Pricing fan-out, plus the retired kernel-name shims.

Every hot loop runs one path: the multi-task greedy on the sparse CSR
contribution matrix (:mod:`repro.core.contrib_matrix`), the batch and
memoized pricers of :mod:`repro.perf`, and the array workload engine of
:mod:`repro.workload.engine`.  The paths they replaced stay as named
oracles that no keyword reaches — :func:`repro.core.greedy.
greedy_allocation_dense`, :func:`repro.core.critical.
critical_contribution_multi` and the ``*_reference`` methods of the
mobility and workload layers — and the parity suites compare each
production call with its oracle.

Pricing fan-out across winners is chosen by the ``max_workers=``
keyword (:func:`resolve_price_workers`): a positive count, or ``"auto"``
/ ``None`` for a cpu-count heuristic.  The resolved spec records whether
the count came from the heuristic, because the batch pricer only
auto-engages fan-out on auctions large enough to amortise thread
startup, while an explicit count always fans out.  Fan-out runs on
threads: numpy releases the GIL on the wide reductions.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ValidationError

__all__ = [
    "resolve_kernel",
    "resolve_workload_kernel",
    "PriceWorkers",
    "resolve_price_workers",
    "resolve_price_backend",
]


def resolve_kernel(kernel: str | None = None) -> str:
    """Always ``"vectorized"``, the one kernel there is.  Raises
    :class:`ValidationError` on any other name.

    Nothing under ``src/`` calls it; it stays for the settings record of
    the end-to-end benchmark and goes at the next change to the benchmark.
    """
    if kernel not in (None, "vectorized"):
        raise ValidationError(
            f"unknown kernel argument {kernel!r}; expected 'vectorized'"
        )
    return "vectorized"


#: The workload engine's name for the same shim; it goes with it.
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
    Raises :class:`ValidationError` on any other name.

    Nothing under ``src/`` calls it; it stays for the settings record of
    the end-to-end benchmark and goes at the next change to the benchmark.
    """
    if backend not in (None, "thread"):
        raise ValidationError(
            f"unknown price backend argument {backend!r}; expected 'thread'"
        )
    return "thread"
