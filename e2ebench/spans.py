"""In-memory span recorder for the benchmark's traced mode.

The traced mode times each layer from the benchmark's side of the API: it
wraps the public functions and methods listed in :data:`TARGETS` so every
call records one span (layer, start, end, parent), plus the work counts
the call produced.  Spans stay in memory and are written out once the run
ends (:meth:`SpanRecorder.write`).  A layer's time is its *self* time: the
span's duration minus the durations of the spans it directly contains, so
nested layers are never counted twice and the layer times of a round sum
to the share of the round that the named layers cover.

Nothing here touches the program's own tracer (``repro.obs``): the wrappers
are installed only for traced phases and removed afterwards, and the
untraced end-to-end runs never see them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    """One recorded call into a layer."""

    layer: str
    name: str
    phase: str
    start: float
    end: float
    parent: int | None
    thread: int
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start) - self.child_seconds


# --------------------------------------------------------------------- #
# Work counters read from call arguments and results
# --------------------------------------------------------------------- #


def _count_transitions(rec, args, kwargs, result) -> None:
    sequences = kwargs.get("sequences", args[0] if args else {})
    rec.count(
        "mobility.transitions",
        sum(max(0, len(seq) - 1) for seq in sequences.values()),
    )


def _count_instance(rec, args, kwargs, result) -> None:
    rec.count("workload.instances")
    instance = result.instance
    if hasattr(instance, "tasks"):  # multi-task: one bid per (user, task)
        rec.count("workload.bids", sum(len(u.pos) for u in instance.users))
    else:  # single task: one bid per user
        rec.count("workload.bids", instance.n_users)


def _calls(metric):
    def counter(rec, args, kwargs, result) -> None:
        rec.count(metric)

    return counter


def _count_mechanism(rec, args, kwargs, result) -> None:
    perf = result.perf
    rec.count("perf.greedy_iterations", perf.greedy_iterations)
    rec.count("perf.prefix_iterations_reused", perf.greedy_prefix_iterations_reused)
    rec.count("perf.rows_recomputed", perf.greedy_rows_recomputed)
    rec.count("perf.early_exits", perf.pricing_early_exits)


def _count_priced(rec, args, kwargs, result) -> None:
    rec.count("perf.winners_priced", len(result))


def _count_cells(rec, args, kwargs, result) -> None:
    rec.count("simulation.cells", result[1]["executed"])


#: (module, attribute path, layer, counter): the public entry points of
#: each layer (the layer table in README.md).
TARGETS = (
    ("repro.mobility.synthetic", "SyntheticTaxiFleet.generate_records", "mobility.synthesis", None),
    ("repro.mobility.dataset", "TraceDataset.from_records", "mobility.dataset", None),
    ("repro.mobility.markov", "MarkovMobilityModel.from_sequences", "mobility.fit", _count_transitions),
    ("repro.workload.generator", "WorkloadGenerator.single_task_instance", "workload.generate", _count_instance),
    ("repro.workload.generator", "WorkloadGenerator.multi_task_instance", "workload.generate", _count_instance),
    ("repro.core.fptas", "fptas_min_knapsack", "core.fptas", _calls("core.fptas_calls")),
    ("repro.core.greedy", "greedy_allocation", "core.greedy", _calls("core.greedy_calls")),
    ("repro.core.baselines", "optimal_single_task", "core.baselines", _calls("core.milp_solves")),
    ("repro.core.baselines", "optimal_multi_task", "core.baselines", _calls("core.milp_solves")),
    ("repro.core.baselines", "min_greedy_single_task", "core.baselines", None),
    ("repro.core.baselines", "st_vcg", "core.baselines", None),
    ("repro.core.baselines", "mt_vcg", "core.baselines", None),
    ("repro.core.multi_task", "MultiTaskMechanism.run", "core.mechanism", _count_mechanism),
    ("repro.core.single_task", "SingleTaskMechanism.run", "core.mechanism", _count_mechanism),
    ("repro.perf.batch_pricer", "BatchPricer.__init__", "perf.pricer_build", None),
    ("repro.perf.single_pricer", "SingleTaskPricer.__init__", "perf.pricer_build", None),
    ("repro.perf.batch_pricer", "BatchPricer.price_all", "perf.pricing", _count_priced),
    ("repro.perf.single_pricer", "SingleTaskPricer.price_all", "perf.pricing", _count_priced),
    ("repro.simulation.engine", "ExecutionSimulator.simulate_multi", "simulation.execution", None),
    ("repro.simulation.engine", "ExecutionSimulator.simulate_single", "simulation.execution", None),
    ("repro.simulation.parallel", "ExperimentRunner.run", "simulation.runner", _count_cells),
    ("repro.queue.jsonl_backend", "JsonlBackend.append", "queue.ledger", None),
)

#: Per-layer time metric -> layer.
TIME_METRICS = {
    "mobility.synthesis_s": "mobility.synthesis",
    "mobility.dataset_s": "mobility.dataset",
    "mobility.fit_s": "mobility.fit",
    "workload.generate_s": "workload.generate",
    "core.fptas_s": "core.fptas",
    "core.greedy_s": "core.greedy",
    "core.baselines_s": "core.baselines",
    "core.mechanism_self_s": "core.mechanism",
    "perf.pricer_build_s": "perf.pricer_build",
    "perf.pricing_s": "perf.pricing",
    "simulation.execution_s": "simulation.execution",
    "simulation.runner_self_s": "simulation.runner",
    "queue.ledger_s": "queue.ledger",
}

#: Per-layer work counts, in the order they are reported.
COUNT_METRICS = (
    "mobility.transitions",
    "workload.instances",
    "workload.bids",
    "core.fptas_calls",
    "core.greedy_calls",
    "core.milp_solves",
    "perf.winners_priced",
    "perf.greedy_iterations",
    "perf.prefix_iterations_reused",
    "perf.rows_recomputed",
    "perf.early_exits",
    "simulation.cells",
)


class SpanRecorder:
    """Records spans and counts while its wrappers are installed.

    Usage: :meth:`install` before a traced phase, set :attr:`phase` to name
    it and :attr:`active` around the timed work, :meth:`uninstall` after.
    Spans nest per thread; a span opened on a thread with no open span is a
    root.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        #: Spans are recorded only while this is set (the timed work).
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------- #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, metric: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.phase, metric)] += int(n)

    def call(self, layer: str, name: str, fn, args, kwargs, counter):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(
            layer=layer,
            name=name,
            phase=self.phase,
            start=0.0,
            end=0.0,
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                self.spans[span.parent].child_seconds += span.end - span.start
        if counter is not None:
            # Methods and classmethods receive self/cls first; counters
            # read only the call's own arguments.
            counter(self, args[1:] if "." in name else args, kwargs, result)
        return result

    # -- installing wrappers ------------------------------------------- #

    def _wrapper(self, layer: str, name: str, fn, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder.call(layer, name, fn, args, kwargs, counter)

        return traced

    def install(self) -> None:
        """Wrap every target; module-level functions are rebound in every
        ``repro`` module that imported them by name."""
        if self._patches:
            return
        for module_name, path, layer, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrapper(layer, path, raw.__func__, counter))
                else:
                    new = self._wrapper(layer, path, raw, counter)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(module, path)
            new = self._wrapper(layer, path, original, counter)
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    mod, path, None
                ) is original:
                    self._patches.append((mod, path, original))
                    setattr(mod, path, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------- #

    def layer_seconds(self, phase: str) -> dict[str, float]:
        """Self seconds per layer over the spans of one phase."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.phase == phase:
                totals[span.layer] += span.self_seconds
        return dict(totals)

    def phase_counts(self, phase: str) -> dict[str, int]:
        return {m: n for (p, m), n in self.counts.items() if p == phase}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = asdict(span)
                record["index"] = index
                record["start"] = span.start - origin
                record["end"] = span.end - origin
                record["self_seconds"] = span.self_seconds
                handle.write(json.dumps(record) + "\n")

