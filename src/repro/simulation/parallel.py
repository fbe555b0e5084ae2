"""Parallel, resumable execution of experiment cell grids.

:class:`ExperimentRunner` executes the cells of an
:class:`repro.simulation.experiments.ExperimentGrid` either in-process
(``workers=1`` — the bit-exact reference path) or sharded across a
``ProcessPoolExecutor``.  Cells are dispatched in contiguous chunks to
amortise inter-process overhead; each worker rebuilds the (deterministic)
testbed once per process and returns one payload per cell: the normalised
value dict, a metrics snapshot, optional namespaced trace records, and
timing/pid provenance.

Equality with the serial path is by construction:

* cell seeds live in ``cell.params`` — no shared RNG state crosses cells;
* cell values round-trip through :func:`repro.simulation.checkpoint.
  normalize_values` in **both** paths before aggregation;
* aggregation and metrics merging consume cells in **index order**, no
  matter the order workers finished them.

Checkpoint/resume: give the runner a :class:`repro.simulation.checkpoint.
CheckpointLog` and it records every finished cell; give it the ``completed``
mapping from :func:`~repro.simulation.checkpoint.load_checkpoint` and it
skips those cells, splicing their stored values (and metrics) into the
aggregation as if they had just run.

>>> chunk_indices(5, 2)
[[0, 1], [2, 3], [4]]
>>> default_chunk_size(10, workers=4)
1
>>> default_chunk_size(200, workers=4)
13
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

from ..obs.metrics import MetricsRegistry
from ..obs.progress import Heartbeat
from ..obs.tracing import Tracer
from .checkpoint import CellRecord, normalize_values
from .experiments import GRIDS, Cell, ExperimentGrid, default_testbed

__all__ = [
    "ExperimentRunner",
    "chunk_indices",
    "default_chunk_size",
]


def chunk_indices(n: int, size: int) -> list[list[int]]:
    """Split ``range(n)`` into consecutive chunks of at most ``size``.

    >>> chunk_indices(4, 4)
    [[0, 1, 2, 3]]
    >>> chunk_indices(0, 3)
    []
    """
    return [list(range(i, min(i + size, n))) for i in range(0, n, size)]


def default_chunk_size(n_cells: int, workers: int) -> int:
    """Cells per dispatch chunk: ~4 chunks per worker, at least one cell.

    Small enough that a slow cell cannot strand a whole worker's share
    behind it, large enough that dispatch overhead stays negligible.
    """
    return max(1, math.ceil(n_cells / (workers * 4)))


# --------------------------------------------------------------------- #
# Worker side (module-level for picklability)
# --------------------------------------------------------------------- #

_WORKER_TESTBED_ARGS: tuple[int, int] | None = None


def _worker_init(n_taxis: int, seed: int) -> None:
    """Pool initializer: remember how this worker must build testbeds."""
    global _WORKER_TESTBED_ARGS
    _WORKER_TESTBED_ARGS = (n_taxis, seed)


def _namespace_records(records: list[dict], cell: Cell) -> list[dict]:
    """Rebase a worker tracer's span ids into a per-cell id range.

    Every worker tracer numbers spans from 1, so records from different
    cells would collide in the parent stream.  Offsetting by
    ``(cell.index + 1) * 1_000_000`` keeps ids unique per cell (cells stay
    far below a million spans) and tags each record with its cell.
    """
    offset = (cell.index + 1) * 1_000_000
    namespaced = []
    for record in records:
        rebased = dict(record)
        if rebased.get("span_id") is not None:
            rebased["span_id"] += offset
        if rebased.get("parent_id") is not None:
            rebased["parent_id"] += offset
        rebased.setdefault("experiment", cell.experiment)
        rebased.setdefault("cell", cell.cell_id)
        namespaced.append(rebased)
    return namespaced


def _run_one_cell(
    grid: ExperimentGrid, testbed, cell: Cell, params: dict, tracer, metrics
) -> tuple[dict, float]:
    """Execute one cell; returns (normalised values, wall-clock seconds)."""
    start = time.perf_counter()
    values = normalize_values(
        grid.run_cell(testbed, cell, params, tracer=tracer, metrics=metrics)
    )
    return values, time.perf_counter() - start


def _worker_run_chunk(
    name: str, overrides: dict | None, indices: list[int], trace: bool
) -> list[dict]:
    """Execute a chunk of cells inside a worker process.

    The worker receives only the experiment *name* and the original
    parameter overrides — it re-resolves the grid from :data:`GRIDS` and
    rebuilds the (process-cached, deterministic) testbed itself, so no
    grid or testbed object ever crosses the process boundary.
    """
    n_taxis, seed = _WORKER_TESTBED_ARGS
    grid = GRIDS[name]
    params = grid.resolve(overrides)
    cells = grid.cells(params)
    testbed = default_testbed(n_taxis=n_taxis, seed=seed, kind=grid.testbed_kind)
    payloads = []
    for index in indices:
        cell = cells[index]
        tracer = Tracer(sink=None) if trace else None
        registry = MetricsRegistry()
        values, seconds = _run_one_cell(grid, testbed, cell, params, tracer, registry)
        payloads.append(
            {
                "index": index,
                "cell_id": cell.cell_id,
                "values": values,
                "seconds": seconds,
                "pid": os.getpid(),
                "metrics": registry.to_dict(),
                "events": _namespace_records(tracer.records, cell) if trace else [],
            }
        )
    return payloads


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class ExperimentRunner:
    """Runs experiment grids serially or across a process pool, resumably.

    The pool is created lazily on the first parallel :meth:`run` and shared
    by subsequent calls (workers keep their testbed caches warm across
    experiments); :meth:`close` — or use as a context manager — shuts it
    down.

    Args:
        workers: Process count; ``1`` (default) runs cells in-process, in
            index order, exactly like :func:`repro.simulation.experiments.
            run_grid`.
        n_taxis: Testbed fleet size (workers rebuild testbeds from this).
        seed: Testbed RNG seed.
        chunk_size: Cells per dispatch chunk (default:
            :func:`default_chunk_size` per experiment).
        tracer: Optional parent tracer.  Serial cells stream into it
            directly; parallel cells trace into per-worker tracers whose
            records are namespaced and absorbed on completion.  Either way
            it receives one ``cell.end`` event per executed cell.
        metrics: Optional parent :class:`~repro.obs.metrics.MetricsRegistry`.
            Each cell runs against a fresh registry (in both modes) whose
            snapshot is merged in cell-index order; the runner additionally
            observes every numeric cell value into an
            ``<experiment>.<key>`` histogram.
        checkpoint: Optional :class:`~repro.simulation.checkpoint.
            CheckpointLog`; every executed cell is appended (and flushed)
            the moment it finishes.
        completed: Optional mapping from :func:`~repro.simulation.
            checkpoint.load_checkpoint`; cells found in it are not
            re-executed.
        backend: Optional :class:`~repro.queue.base.QueueBackend`
            standing in for both ``checkpoint`` and ``completed``:
            executed cells are appended to it, and its
            ``load_completed()`` seeds the skip set.  Mutually exclusive
            with ``checkpoint``; an explicit ``completed`` mapping still
            wins over the backend's.
    """

    def __init__(
        self,
        workers: int = 1,
        n_taxis: int = 250,
        seed: int = 42,
        chunk_size: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        checkpoint=None,
        completed: dict[tuple[str, str], CellRecord] | None = None,
        backend=None,
    ):
        if backend is not None and checkpoint is not None:
            raise ValueError("pass either backend= or checkpoint=, not both")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size!r}")
        if backend is not None:
            checkpoint = backend
            if completed is None:
                completed = backend.load_completed()
        self.workers = max(1, int(workers))
        self.n_taxis = n_taxis
        self.seed = seed
        self.chunk_size = chunk_size
        self.tracer = tracer
        self.metrics = metrics
        self.checkpoint = checkpoint
        self.completed = completed or {}
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------- #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(self.n_taxis, self.seed),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (if one was started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ----------------------------------------------------- #

    def run(self, name: str, overrides: dict | None = None):
        """Execute one experiment grid, skipping checkpointed cells.

        Args:
            name: Grid id in :data:`~repro.simulation.experiments.GRIDS`.
            overrides: Parameter overrides (``None`` values ignored).

        Returns:
            ``(result, stats)`` — the aggregated
            :class:`~repro.simulation.experiments.ExperimentResult` plus a
            dict with ``total`` / ``executed`` / ``skipped`` / ``workers``
            / ``chunk_size`` / ``seconds``, the manifest's per-experiment
            cell provenance.

        Raises:
            KeyError: Unknown experiment name.
            ValueError: Unknown override keys, or a checkpointed cell whose
                recorded parameters differ from this run's (resuming into a
                differently-configured run would silently mix results).
        """
        grid = GRIDS[name]
        params = grid.resolve(overrides)
        cells = grid.cells(params)
        norm_params = normalize_values(params)
        started = time.perf_counter()

        values_by_index: dict[int, dict] = {}
        metrics_by_index: dict[int, dict | None] = {}
        pending: list[Cell] = []
        for cell in cells:
            record = self.completed.get((name, cell.cell_id))
            if record is None:
                pending.append(cell)
                continue
            if record.params != norm_params:
                raise ValueError(
                    f"{name}/{cell.cell_id}: checkpoint was written with different "
                    f"parameters ({record.params!r} != {norm_params!r}); "
                    "resume with the original configuration or start a new run"
                )
            values_by_index[cell.index] = record.values
            metrics_by_index[cell.index] = record.metrics

        chunk = self.chunk_size or default_chunk_size(
            max(len(pending), 1), self.workers
        )
        if pending:
            # One heartbeat per grid: a `cells.progress` event as cells
            # complete (throttled), so a --watch dashboard or --progress
            # console line sees long grids advance.
            beat = (
                Heartbeat(
                    "cells",
                    total=len(pending),
                    tracer=self.tracer,
                    experiment=name,
                )
                if self.tracer is not None
                else None
            )
            if self.workers == 1:
                self._run_serial(
                    grid,
                    pending,
                    params,
                    norm_params,
                    values_by_index,
                    metrics_by_index,
                    beat,
                )
            else:
                self._run_parallel(
                    grid,
                    overrides,
                    pending,
                    norm_params,
                    chunk,
                    values_by_index,
                    metrics_by_index,
                    beat,
                )
            if beat is not None:
                beat.finish()

        self._merge_metrics(name, cells, values_by_index, metrics_by_index)
        ordered = [values_by_index[cell.index] for cell in cells]
        result = grid.aggregate(params, ordered)
        stats = {
            "total": len(cells),
            "executed": len(pending),
            "skipped": len(cells) - len(pending),
            "workers": self.workers,
            "chunk_size": chunk if self.workers > 1 else 1,
            "seconds": round(time.perf_counter() - started, 6),
        }
        return result, stats

    def _finish_cell(
        self,
        cell: Cell,
        norm_params: dict,
        values: dict,
        seconds: float,
        pid: int,
        snapshot: dict,
        values_by_index: dict,
        metrics_by_index: dict,
    ) -> None:
        """Common bookkeeping once a cell's payload is in hand."""
        values_by_index[cell.index] = values
        metrics_by_index[cell.index] = snapshot
        if self.checkpoint is not None:
            self.checkpoint.append(
                CellRecord(
                    experiment=cell.experiment,
                    cell_id=cell.cell_id,
                    index=cell.index,
                    params=norm_params,
                    values=values,
                    seconds=round(seconds, 6),
                    pid=pid,
                    metrics=snapshot,
                )
            )
        if self.tracer is not None:
            self.tracer.event(
                "cell.end",
                experiment=cell.experiment,
                cell=cell.cell_id,
                index=cell.index,
                seconds=seconds,
                pid=pid,
            )

    def _run_serial(
        self,
        grid,
        pending,
        params,
        norm_params,
        values_by_index,
        metrics_by_index,
        beat: Heartbeat | None = None,
    ) -> None:
        testbed = default_testbed(
            n_taxis=self.n_taxis, seed=self.seed, kind=grid.testbed_kind
        )
        for cell in pending:
            registry = MetricsRegistry()
            values, seconds = _run_one_cell(
                grid, testbed, cell, params, self.tracer, registry
            )
            self._finish_cell(
                cell,
                norm_params,
                values,
                seconds,
                os.getpid(),
                registry.to_dict(),
                values_by_index,
                metrics_by_index,
            )
            if beat is not None:
                beat.update()

    def _run_parallel(
        self,
        grid,
        overrides,
        pending,
        norm_params,
        chunk,
        values_by_index,
        metrics_by_index,
        beat: Heartbeat | None = None,
    ) -> None:
        pool = self._ensure_pool()
        by_index = {cell.index: cell for cell in pending}
        order = [cell.index for cell in pending]
        futures = [
            pool.submit(
                _worker_run_chunk,
                grid.experiment_id,
                overrides,
                [order[i] for i in group],
                self.tracer is not None,
            )
            for group in chunk_indices(len(order), chunk)
        ]
        for future in as_completed(futures):
            for payload in future.result():
                cell = by_index[payload["index"]]
                if self.tracer is not None and payload["events"]:
                    self.tracer.absorb(payload["events"])
                self._finish_cell(
                    cell,
                    norm_params,
                    payload["values"],
                    payload["seconds"],
                    payload["pid"],
                    payload["metrics"],
                    values_by_index,
                    metrics_by_index,
                )
                if beat is not None:
                    beat.update()

    def _merge_metrics(
        self, name: str, cells, values_by_index, metrics_by_index
    ) -> None:
        """Fold per-cell metrics into the parent registry, in index order."""
        if self.metrics is None:
            return
        for cell in cells:
            snapshot = metrics_by_index.get(cell.index)
            if snapshot:
                self.metrics.merge(snapshot)
            for key, value in sorted(values_by_index[cell.index].items()):
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.metrics.histogram(f"{name}.{key}").observe(value)
