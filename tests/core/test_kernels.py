"""Fan-out selection, and the retired kernel-name shims.

``resolve_price_workers`` and ``resolve_price_backend`` turn a
``max_workers=`` / ``backend=`` keyword into the value a call runs with;
``None`` means the default.  ``resolve_kernel`` and
``resolve_workload_kernel`` only name the one kernel there is, for the
end-to-end benchmark's settings record.  A wrong value must fail loudly,
and no environment variable — not even one named like the ones older
versions read — may change what any of them returns.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import ValidationError
from repro.core.kernels import (
    PriceWorkers,
    resolve_kernel,
    resolve_price_backend,
    resolve_price_workers,
    resolve_workload_kernel,
)


def test_default_is_vectorized():
    assert resolve_kernel() == "vectorized"
    assert resolve_kernel(None) == "vectorized"
    assert resolve_workload_kernel(None) == "vectorized"


def test_explicit_argument_wins_over_everything(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    assert resolve_kernel("vectorized") == "vectorized"


def test_empty_environment_value_falls_through(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "")
    assert resolve_kernel() == "vectorized"


def test_environment_cannot_steer_resolution(monkeypatch):
    for name in (
        "REPRO_KERNEL",
        "REPRO_WORKLOAD_KERNEL",
        "REPRO_PRICE_WORKERS",
        "REPRO_PRICE_BACKEND",
    ):
        monkeypatch.setenv(name, "bogus")
    assert resolve_kernel(None) == "vectorized"
    assert resolve_workload_kernel(None) == "vectorized"
    assert resolve_price_workers(None).auto is True
    assert resolve_price_backend(None) == "thread"


@pytest.mark.parametrize(
    ("install", "source"),
    [
        (lambda: resolve_kernel("dense"), "argument"),
        (lambda: resolve_workload_kernel("dense"), "unknown kernel"),
    ],
)
def test_unknown_kernel_names_its_source(install, source):
    with pytest.raises(ValidationError, match=source):
        install()


def test_known_kernels_resolve_to_themselves():
    """Only ``"vectorized"`` is known: the dense and per-taxi paths are
    named oracles now, and no keyword reaches them."""
    assert resolve_kernel("vectorized") == "vectorized"
    assert resolve_workload_kernel("vectorized") == "vectorized"
    for retired in ("reference", "dense"):
        with pytest.raises(ValidationError):
            resolve_kernel(retired)


class TestPriceWorkers:
    def test_default_is_auto_capped_cpu_count(self):
        spec = resolve_price_workers()
        assert spec.auto is True
        assert spec.count == min(os.cpu_count() or 1, 8)

    def test_explicit_argument_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRICE_WORKERS", "3")
        assert resolve_price_workers(2) == PriceWorkers(2, False)

    def test_auto_at_any_level_resolves_to_heuristic(self):
        assert resolve_price_workers("auto") == resolve_price_workers(None)
        assert resolve_price_workers("auto").auto is True

    def test_empty_environment_value_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRICE_WORKERS", "")
        assert resolve_price_workers().auto is True

    @pytest.mark.parametrize("bad", ["fast", "0", "-2", 0, -1, 2.5, True])
    def test_invalid_workers_rejected_naming_source(self, bad):
        with pytest.raises(ValidationError, match="argument"):
            resolve_price_workers(bad)


class TestPriceBackend:
    def test_default_is_thread(self):
        assert resolve_price_backend() == "thread"

    def test_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRICE_BACKEND", "process")
        assert resolve_price_backend("thread") == "thread"

    def test_unknown_backend_rejected(self):
        for bad in ("greenlet", "process"):
            with pytest.raises(ValidationError, match="argument"):
                resolve_price_backend(bad)
