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

The switch is resolved per call site, in priority order: an explicit
``kernel=`` argument, a process-wide default installed with
:func:`set_default_kernel` (the CLI's ``--kernel`` flag), the
``REPRO_KERNEL`` environment variable (which propagates into worker
processes spawned by the parallel experiment runner), then
:data:`DEFAULT_KERNEL`.  The property-test matrix in
``tests/perf/test_kernels_parity.py`` asserts bit-identical allocations,
traces, and rewards across the two kernels.

Pricing fan-out resolves through the same shape of chain
(:func:`resolve_price_workers`): an explicit ``max_workers=`` argument >
:func:`set_default_price_workers` (the CLI's ``--price-workers`` flag) >
the ``REPRO_PRICE_WORKERS`` environment variable > ``"auto"`` (a
cpu-count heuristic).  Any level may say ``"auto"``; the resolved spec
records whether the worker count came from the heuristic, because the
batch pricer only auto-engages fan-out on auctions large enough to
amortise pool startup, while an explicitly requested count always fans
out.  ``REPRO_PRICE_BACKEND`` (or the ``backend=`` argument) picks
``"thread"`` (default — numpy releases the GIL on the wide reductions)
or ``"process"`` (a picklable pricer snapshot per worker, for hosts
where the GIL still binds at small ``t``).
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ValidationError

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "ENV_KERNEL",
    "resolve_kernel",
    "set_default_kernel",
    "ENV_WORKLOAD_KERNEL",
    "resolve_workload_kernel",
    "set_default_workload_kernel",
    "PRICE_BACKENDS",
    "ENV_PRICE_WORKERS",
    "ENV_PRICE_BACKEND",
    "PriceWorkers",
    "resolve_price_workers",
    "set_default_price_workers",
    "resolve_price_backend",
]

#: The recognised kernel names.
KERNELS = ("vectorized", "reference")

#: Used when neither an argument, a process default, nor the environment
#: picks a kernel.
DEFAULT_KERNEL = "vectorized"

#: Environment variable consulted by :func:`resolve_kernel`; exported by
#: the CLI so experiment worker processes inherit the choice.
ENV_KERNEL = "REPRO_KERNEL"

_process_default: str | None = None


def _validate(kernel: str, source: str) -> str:
    if kernel not in KERNELS:
        raise ValidationError(
            f"unknown kernel {kernel!r} from {source}; expected one of {KERNELS}"
        )
    return kernel


def set_default_kernel(kernel: str | None) -> None:
    """Install (or with ``None`` clear) the process-wide kernel default."""
    global _process_default
    _process_default = None if kernel is None else _validate(kernel, "set_default_kernel")


def resolve_kernel(kernel: str | None = None) -> str:
    """The kernel a call site should use.

    Priority: explicit argument > :func:`set_default_kernel` >
    ``REPRO_KERNEL`` environment variable > :data:`DEFAULT_KERNEL`.
    Raises :class:`ValidationError` on an unrecognised name, naming the
    source so a typo in the environment is distinguishable from one in
    code.
    """
    if kernel is not None:
        return _validate(kernel, "argument")
    if _process_default is not None:
        return _process_default
    env = os.environ.get(ENV_KERNEL)
    if env:
        return _validate(env, f"environment variable {ENV_KERNEL}")
    return DEFAULT_KERNEL


# --------------------------------------------------------------------- #
# Workload-engine kernel resolution
# --------------------------------------------------------------------- #

#: Environment variable consulted by :func:`resolve_workload_kernel`;
#: exported by the CLI so experiment worker processes inherit the choice.
ENV_WORKLOAD_KERNEL = "REPRO_WORKLOAD_KERNEL"

_process_default_workload: str | None = None


def set_default_workload_kernel(kernel: str | None) -> None:
    """Install (or with ``None`` clear) the process-wide workload kernel."""
    global _process_default_workload
    _process_default_workload = (
        None if kernel is None else _validate(kernel, "set_default_workload_kernel")
    )


def resolve_workload_kernel(kernel: str | None = None) -> str:
    """The workload-engine kernel a call site should use.

    Everything *upstream of the auction* — Markov fitting, top-m
    prediction, instance generation, trace streaming — resolves its
    compute kernel here, through the same shape of chain as
    :func:`resolve_kernel`: explicit argument >
    :func:`set_default_workload_kernel` (the CLI's ``--workload-kernel``
    flag) > ``REPRO_WORKLOAD_KERNEL`` environment variable >
    :data:`DEFAULT_KERNEL`.  The kernel names are shared with the
    mechanism chain (``"vectorized"`` / ``"reference"``) but resolved
    independently, so a parity bisection can pin one side at a time.
    """
    if kernel is not None:
        return _validate(kernel, "argument")
    if _process_default_workload is not None:
        return _process_default_workload
    env = os.environ.get(ENV_WORKLOAD_KERNEL)
    if env:
        return _validate(env, f"environment variable {ENV_WORKLOAD_KERNEL}")
    return DEFAULT_KERNEL


# --------------------------------------------------------------------- #
# Pricing fan-out resolution
# --------------------------------------------------------------------- #

#: Environment variable consulted by :func:`resolve_price_workers`;
#: exported by the CLI so experiment worker processes inherit the choice.
ENV_PRICE_WORKERS = "REPRO_PRICE_WORKERS"

#: Environment variable consulted by :func:`resolve_price_backend`.
ENV_PRICE_BACKEND = "REPRO_PRICE_BACKEND"

#: The recognised pricing fan-out backends.
PRICE_BACKENDS = ("thread", "process")

#: Cap on the auto-sized worker count; beyond this the replays contend on
#: memory bandwidth rather than compute.
_AUTO_WORKER_CAP = 8

_process_default_workers: int | str | None = None


class PriceWorkers(NamedTuple):
    """A resolved pricing fan-out spec.

    ``count`` is the worker count to use (≥ 1).  ``auto`` records that the
    count came from the cpu heuristic rather than an explicit request —
    the batch pricer then keeps small auctions sequential (pool startup
    would dominate) while always honouring an explicit count.
    """

    count: int
    auto: bool


def _validate_workers(workers: int | str, source: str) -> int | str:
    if workers == "auto":
        return workers
    if isinstance(workers, str):
        if not workers.lstrip("-").isdigit():
            raise ValidationError(
                f"invalid price workers {workers!r} from {source}; "
                "expected a positive integer or 'auto'"
            )
        workers = int(workers)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(
            f"invalid price workers {workers!r} from {source}; "
            "expected a positive integer or 'auto'"
        )
    return workers


def set_default_price_workers(workers: int | str | None) -> None:
    """Install (or with ``None`` clear) the process-wide fan-out default."""
    global _process_default_workers
    _process_default_workers = (
        None
        if workers is None
        else _validate_workers(workers, "set_default_price_workers")
    )


def resolve_price_workers(workers: int | str | None = None) -> PriceWorkers:
    """The pricing fan-out a call site should use.

    Priority: explicit argument > :func:`set_default_price_workers` >
    ``REPRO_PRICE_WORKERS`` environment variable > ``"auto"``.  The value
    ``"auto"`` (at any level) resolves to ``min(cpu_count, 8)`` with
    ``auto=True``; integers resolve to themselves with ``auto=False``.
    Raises :class:`ValidationError` on anything else, naming the source.
    """
    if workers is not None:
        spec = _validate_workers(workers, "argument")
    elif _process_default_workers is not None:
        spec = _process_default_workers
    else:
        env = os.environ.get(ENV_PRICE_WORKERS)
        if env:
            spec = _validate_workers(env, f"environment variable {ENV_PRICE_WORKERS}")
        else:
            spec = "auto"
    if spec == "auto":
        return PriceWorkers(max(1, min(os.cpu_count() or 1, _AUTO_WORKER_CAP)), True)
    return PriceWorkers(int(spec), False)


def resolve_price_backend(backend: str | None = None) -> str:
    """The fan-out backend: argument > ``REPRO_PRICE_BACKEND`` > ``"thread"``."""
    if backend is None:
        backend = os.environ.get(ENV_PRICE_BACKEND) or "thread"
        source = f"environment variable {ENV_PRICE_BACKEND}"
    else:
        source = "argument"
    if backend not in PRICE_BACKENDS:
        raise ValidationError(
            f"unknown price backend {backend!r} from {source}; "
            f"expected one of {PRICE_BACKENDS}"
        )
    return backend
