"""Progress heartbeats for long-running phases.

The pricing phase of a large auction replays the greedy once per winner —
O(W²) iterations, minutes of wall clock at n=100k — and used to be a
silent stall: nothing hit the event log between ``reward_determination``
opening and closing.  :class:`Heartbeat` fixes that: a producer wraps its
loop, calls :meth:`Heartbeat.update` once per unit of work, and the
heartbeat emits a throttled ``<label>.progress`` event (done/total,
rate, ETA) through the duck-typed tracer — so a ``--watch`` dashboard or
a ``tail -f events.jsonl`` sees the phase moving.  ``repro run
--progress`` renders those events as one console line.

Throttling: an event is emitted when *either* ``every_n`` units have
completed since the last emission *or* ``every_seconds`` have elapsed,
and always on :meth:`finish`.  Producers therefore call ``update`` freely
(once per winner, once per cell); the heartbeat decides when a record is
worth writing.  The disabled path (no tracer) costs one ``is None``
check at the call site — producers are expected to skip constructing a
heartbeat entirely when nothing consumes it.

Thread-safety: ``update`` is lock-protected, so the batch pricer's
thread fan-out (its ``max_workers=`` keyword) can share one heartbeat
across workers.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, TextIO

__all__ = ["Heartbeat", "format_progress", "progress_printer"]

#: Record-name suffix shared by every heartbeat event (``pricing.progress``,
#: ``cells.progress``, ...); consumers filter on it.
PROGRESS_SUFFIX = ".progress"


def format_progress(
    label: str,
    done: int,
    total: int | None,
    rate: float | None,
    eta_seconds: float | None,
) -> str:
    """One human-readable progress line (shared by console and tests).

    >>> format_progress("pricing", 120, 493, 8.0, 46.6)
    'pricing 120/493 (24%) 8.0/s eta 47s'
    >>> format_progress("cells", 3, None, None, None)
    'cells 3'
    """
    parts = [label, f"{done}/{total} ({done / total:.0%})" if total else str(done)]
    if rate is not None:
        parts.append(f"{rate:.1f}/s")
    if eta_seconds is not None:
        parts.append(f"eta {eta_seconds:.0f}s")
    return " ".join(parts)


def progress_printer(stream: TextIO | None = None) -> Callable[[str], None]:
    """A console callback: rewrite one status line in place (``\\r``-style).

    Used by the ``repro run --progress`` event sink.  Lines go to
    ``stream`` (default ``sys.stderr``); each line is padded to cover the
    previous one.
    """

    state = {"width": 0}
    out = stream if stream is not None else sys.stderr

    def _print(line: str) -> None:
        pad = max(0, state["width"] - len(line))
        out.write("\r" + line + " " * pad)
        out.flush()
        state["width"] = len(line)

    return _print


class Heartbeat:
    """Throttled progress emitter for one long-running phase.

    Args:
        label: Event name prefix; events are named ``<label>.progress``.
        total: Expected number of work units (``None`` when unknown — the
            event then omits ``total``/``eta_seconds``).
        tracer: Duck-typed :class:`~repro.obs.tracing.Tracer` (or ``None``)
            receiving the progress events.
        every_n: Emit after this many units since the last emission
            (default: ``max(1, total // 50)`` — ~2% granularity).
        every_seconds: Also emit when this much time passed since the last
            emission, no matter how few units completed (default 5s) —
            slow phases stay visibly alive.
        attrs: Extra key/values attached to every event (e.g.
            ``mechanism="multi_task"``).
        clock: Injectable time source for tests.
    """

    def __init__(
        self,
        label: str,
        total: int | None = None,
        tracer: Any = None,
        every_n: int | None = None,
        every_seconds: float = 5.0,
        clock: Callable[[], float] = time.perf_counter,
        **attrs: Any,
    ):
        self.label = label
        self.total = total
        self.tracer = tracer
        self.every_n = every_n if every_n is not None else max(1, (total or 0) // 50)
        self.every_seconds = every_seconds
        self.attrs = attrs
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self._last_emit_t = self._started
        self._last_emit_done = 0
        self.done = 0
        self.emitted = 0

    def begin(self) -> None:
        """Re-arm the rate/ETA base clock at the true start of the work loop.

        A heartbeat is often constructed before the phase's setup finishes
        — a worker pool spins up — and rating ``done`` units against the
        construction time would understate throughput (and overstate ETA)
        for the whole phase.  Producers call ``begin()`` immediately before
        dispatching work; without it the construction time is the base, as
        before.  Units already recorded keep counting.
        """
        with self._lock:
            now = self._clock()
            self._started = now
            self._last_emit_t = now

    def update(self, advance: int = 1, **attrs: Any) -> None:
        """Record ``advance`` finished units; emit if a threshold tripped."""
        with self._lock:
            self.done += advance
            now = self._clock()
            due = (
                self.done - self._last_emit_done >= self.every_n
                or now - self._last_emit_t >= self.every_seconds
            )
            if due:
                self._emit(now, final=False, extra=attrs)

    def finish(self, **attrs: Any) -> None:
        """Emit one final event marking the phase complete."""
        with self._lock:
            self._emit(self._clock(), final=True, extra=attrs)

    def _emit(self, now: float, final: bool, extra: dict) -> None:
        elapsed = now - self._started
        rate = self.done / elapsed if elapsed > 0 and self.done else None
        eta = None
        if rate and self.total is not None and self.total > self.done:
            eta = (self.total - self.done) / rate
        payload: dict[str, Any] = {
            "done": self.done,
            "elapsed_seconds": round(elapsed, 6),
            **self.attrs,
            **extra,
        }
        if self.total is not None:
            payload["total"] = self.total
        if rate is not None:
            payload["rate"] = round(rate, 3)
        if eta is not None:
            payload["eta_seconds"] = round(eta, 3)
        if final:
            payload["final"] = True
        if self.tracer is not None:
            self.tracer.event(f"{self.label}{PROGRESS_SUFFIX}", **payload)
        self._last_emit_t = now
        self._last_emit_done = self.done
        self.emitted += 1
