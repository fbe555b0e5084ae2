"""Experiment drivers: one function per paper table/figure (paper, §IV).

Every driver returns an :class:`ExperimentResult` — experiment id, column
headers, and the same rows/series the paper's figure plots — which the
benchmark harness prints and EXPERIMENTS.md records.  Drivers share a
:class:`Testbed` (synthetic fleet → learned mobility model → workload
generator) built once per process via :func:`default_testbed`.

Driver ↔ paper map:

==========================  ==========================================
:func:`run_fig3`            location-prediction accuracy vs ``m``
:func:`run_fig4`            PDF of predicted PoS
:func:`run_fig5a`           single-task social cost vs #users
:func:`run_fig5b`           multi-task social cost vs #users (Table III/1)
:func:`run_fig5c`           multi-task social cost vs #tasks (Table III/2)
:func:`run_fig6`            empirical CDF of winners' expected utilities
:func:`run_fig7`            achieved vs required task PoS (incl. *-VCG)
:func:`run_fig8`            #selected users vs PoS requirement
:func:`run_fig9`            social cost vs PoS requirement
:func:`run_sweep_single`    single-task FPTAS sweep (SeedSequence cells)
==========================  ==========================================

plus three ablations (``run_ablation_epsilon``, ``run_ablation_delta_q``,
``run_ablation_smoothing``) for the design choices DESIGN.md calls out.

Cell grids
----------
Each experiment is also exposed as an :class:`ExperimentGrid` in the
:data:`GRIDS` registry: a declarative decomposition into independent
*cells* (one parameter point × repetition, each with an explicit seed)
that the parallel runner (:mod:`repro.simulation.parallel`) can shard
across worker processes and checkpoint per cell.  The ``run_fig*``
functions are thin wrappers over :func:`run_grid`, which executes the
cells serially **in index order** — the same instance seeds, the same
float-accumulation order, hence bit-identical output to the pre-grid
loops.  Experiments whose structure is a single indivisible computation
(fig3, fig4, the ablations) are wrapped by :class:`SingleCellGrid`.

>>> sorted(GRIDS)[:3]
['ablation-delta-q', 'ablation-epsilon', 'ablation-smoothing']
>>> GRIDS["fig5a"].resolve({"repeats": 1})["repeats"]
1
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis.stats import empirical_cdf, histogram_pdf
from ..analysis.tables import format_table
from ..core.baselines import (
    min_greedy_single_task,
    mt_vcg,
    optimal_multi_task,
    optimal_single_task,
    st_vcg,
)
from ..core.fptas import fptas_min_knapsack
from ..core.multi_task import MultiTaskMechanism
from ..core.obshooks import span as _span
from ..core.rewards import expected_utility_multi, expected_utility_single
from ..core.single_task import SingleTaskMechanism
from ..core.submodular import gamma_parameter, greedy_approximation_bound
from ..core.transforms import achieved_pos, contribution_to_pos
from ..mobility.dataset import TraceDataset
from ..mobility.grid import CityGrid
from ..mobility.markov import MarkovMobilityModel
from ..mobility.prediction import predicted_pos_samples, prediction_accuracy
from ..mobility.synthetic import FleetConfig, SyntheticTaxiFleet
from ..workload.config import SimulationConfig
from ..workload.generator import WorkloadGenerator
from .checkpoint import normalize_values, spawn_cell_seeds

__all__ = [
    "ExperimentResult",
    "Testbed",
    "build_testbed",
    "default_testbed",
    "Cell",
    "ExperimentGrid",
    "SingleCellGrid",
    "GRIDS",
    "run_grid",
    "run_fig3",
    "run_fig4",
    "run_fig5a",
    "run_fig5b",
    "run_fig5c",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_sweep_single",
    "run_ablation_epsilon",
    "run_ablation_delta_q",
    "run_ablation_smoothing",
]


@dataclass(frozen=True)
class ExperimentResult:
    """A reproduced table/figure: id, columns, and data rows.

    Attributes:
        experiment_id: Stable identifier (e.g. ``"fig5a"``).
        description: One-line human-readable summary.
        headers: Column names, one per row element.
        rows: The data rows, in plot order.
        extras: Scalar side-products (sample counts, parameters) that the
            CSV writer emits as ``# key = value`` trailer comments.
    """

    experiment_id: str
    description: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    extras: dict = field(default_factory=dict)

    def to_table(self, precision: int = 3) -> str:
        """Render the rows as an aligned text table.

        Args:
            precision: Decimal places for float cells.

        Returns:
            The formatted table, title line included.
        """
        return format_table(
            self.headers,
            self.rows,
            precision=precision,
            title=f"[{self.experiment_id}] {self.description}",
        )

    def column(self, name: str) -> list:
        """Extract one column by header name.

        Raises:
            ValueError: If ``name`` is not in :attr:`headers`.
        """
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        """The series as CSV text (plot-ready; extras become # comments)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(row)
        for key, value in sorted(self.extras.items()):
            buffer.write(f"# {key} = {value}\n")
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` output to a file."""
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())


@dataclass(frozen=True)
class Testbed:
    """The shared evaluation substrate: fleet, trace, model, generator."""

    grid: CityGrid
    fleet: SyntheticTaxiFleet
    dataset: TraceDataset
    model: MarkovMobilityModel
    generator: WorkloadGenerator
    seed: int


def build_testbed(
    n_taxis: int = 250,
    seed: int = 42,
    kind: str = "dense",
    events_per_taxi: int = 240,
    smoothing: str = "laplace",
    config: SimulationConfig | None = None,
) -> Testbed:
    """Build a testbed: synthetic fleet → trace → learned model → generator.

    Fully deterministic in its arguments — the parallel runner relies on
    this to rebuild byte-identical testbeds inside worker processes.

    Two fleet kinds, mirroring how the paper uses its dataset:

    * ``"citywide"`` — taxis spread over the whole city with small local
      supports; calibrated so the *learned model* statistics match Figures
      3 and 4 (top-9 accuracy ≈ 0.9, PoS mass below 0.2).  Used by the
      mobility-model experiments.
    * ``"dense"`` — taxis homed in a small downtown area with large,
      heavily overlapping supports.  This reproduces the auction workload
      shape the paper's Tables II/III imply: task bundles of size 10–20
      drawn from a common pool, with enough candidate users per location
      for the 100-user sweeps.  (The paper's real fleet of 1,692 taxis is
      naturally dense downtown.)  Used by all auction experiments.

    Args:
        n_taxis: Fleet size.
        seed: RNG seed for fleet synthesis and the workload generator.
        kind: ``"dense"`` or ``"citywide"`` (see above).
        events_per_taxi: Trace length per taxi (``"dense"`` enforces a
            floor of 400 so supports are well-estimated).
        smoothing: Transition-probability estimator for the Markov model.
        config: Optional workload-generation config override.

    Returns:
        The assembled :class:`Testbed`.

    Raises:
        ValueError: On an unknown ``kind``.
    """
    if kind not in ("dense", "citywide"):
        raise ValueError(f"unknown testbed kind {kind!r}")
    grid = CityGrid()
    if kind == "dense":
        fleet_config = FleetConfig(
            n_taxis=n_taxis,
            events_per_taxi=max(events_per_taxi, 400),
            region_radius_cells=2,
            home_radius_cells=2,
            support_size_range=(18, 24),
        )
    else:
        fleet_config = FleetConfig(n_taxis=n_taxis, events_per_taxi=events_per_taxi)
    fleet = SyntheticTaxiFleet(grid, fleet_config, seed=seed)
    dataset = TraceDataset.from_records(fleet.generate_records(), grid)
    model = MarkovMobilityModel.from_sequences(dataset.train, smoothing=smoothing)
    generator = WorkloadGenerator(model, config=config, seed=seed)
    return Testbed(
        grid=grid, fleet=fleet, dataset=dataset, model=model, generator=generator, seed=seed
    )


_TESTBED_CACHE: dict[tuple, Testbed] = {}


def default_testbed(
    n_taxis: int = 250, seed: int = 42, kind: str = "dense"
) -> Testbed:
    """Process-cached standard testbed (building one takes a few seconds)."""
    key = (n_taxis, seed, kind)
    if key not in _TESTBED_CACHE:
        _TESTBED_CACHE[key] = build_testbed(n_taxis=n_taxis, seed=seed, kind=kind)
    return _TESTBED_CACHE[key]


# --------------------------------------------------------------------- #
# Cell-grid framework
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Cell:
    """One independently executable unit of an experiment.

    A cell is a single (parameter point × repetition) with every seed it
    needs pinned in :attr:`params` — running it requires nothing beyond a
    testbed and the experiment's resolved parameters, which is what makes
    cells shardable across processes and resumable from a checkpoint.

    Attributes:
        experiment: The owning grid's id (e.g. ``"fig5a"``).
        index: Position in the grid's canonical order.  Aggregation
            consumes cell values in this order, so float accumulation is
            identical no matter which process computed which cell.
        cell_id: Stable human-readable id, unique within the experiment
            (e.g. ``"n20-rep1"``); the checkpoint key.
        params: Per-cell parameters (sizes, repetition index, seed).
    """

    experiment: str
    index: int
    cell_id: str
    params: dict = field(default_factory=dict)


class ExperimentGrid:
    """Declarative decomposition of one experiment into independent cells.

    Subclasses define the experiment's parameter schema (:meth:`defaults`),
    its cell enumeration (:meth:`cells`), the per-cell computation
    (:meth:`run_cell`), and the order-preserving reduction back to an
    :class:`ExperimentResult` (:meth:`aggregate`).  The contract that makes
    parallel == serial:

    * cells are **independent** — :meth:`run_cell` derives all randomness
      from seeds recorded in ``cell.params`` (never from shared RNG state);
    * cell values are **JSON-serialisable** — they cross process and
      checkpoint boundaries via :func:`repro.simulation.checkpoint.
      normalize_values`;
    * :meth:`aggregate` consumes values **in cell-index order** and uses
      the same accumulation expressions as the original serial loop.
    """

    #: Grid id; also the :data:`GRIDS` registry key.
    experiment_id: str = ""
    #: Which :func:`build_testbed` kind the experiment needs.
    testbed_kind: str = "dense"

    def defaults(self) -> dict:
        """The experiment's full parameter schema with default values."""
        raise NotImplementedError

    def resolve(self, overrides: dict | None = None) -> dict:
        """Merge ``overrides`` into :meth:`defaults`.

        Args:
            overrides: Parameter overrides; ``None``-valued entries are
                ignored (callers can pass optional knobs unconditionally).

        Returns:
            The resolved parameter dict.

        Raises:
            ValueError: If ``overrides`` contains a key the schema does
                not define — catching typos before hours of compute.
        """
        params = dict(self.defaults())
        extra = {k: v for k, v in dict(overrides or {}).items() if v is not None}
        unknown = sorted(set(extra) - set(params))
        if unknown:
            raise ValueError(
                f"{self.experiment_id}: unknown parameter(s) {unknown}; "
                f"known: {sorted(params)}"
            )
        params.update(extra)
        return params

    def cells(self, params: dict) -> tuple[Cell, ...]:
        """Enumerate the grid's cells, in canonical (index) order."""
        raise NotImplementedError

    def run_cell(
        self, testbed: Testbed, cell: Cell, params: dict, tracer=None, metrics=None
    ) -> dict:
        """Execute one cell.

        Args:
            testbed: The shared evaluation substrate.
            cell: The cell to run (seeds live in ``cell.params``).
            params: The experiment's resolved parameters.
            tracer: Optional duck-typed :class:`repro.obs.tracing.Tracer`.
            metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`
                receiving auction-level observations.

        Returns:
            JSON-serialisable value dict, consumed by :meth:`aggregate`.
        """
        raise NotImplementedError

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        """Reduce per-cell values (in cell-index order) to the result.

        Args:
            params: The experiment's resolved parameters.
            values: One normalised value dict per cell, ordered by
                ``cell.index``.

        Returns:
            The same :class:`ExperimentResult` the serial driver produces.
        """
        raise NotImplementedError


class SingleCellGrid(ExperimentGrid):
    """Adapter exposing an indivisible legacy driver as a one-cell grid.

    Used for experiments whose computation cannot be sharded (fig3/fig4
    evaluate one learned model over the whole held-out set; the ablations
    compare estimators on shared instances).  The single cell runs the
    wrapped driver and serialises its :class:`ExperimentResult`.
    """

    def __init__(self, experiment_id: str, driver, testbed_kind: str):
        self.experiment_id = experiment_id
        self.testbed_kind = testbed_kind
        self._driver = driver

    def defaults(self) -> dict:
        signature = inspect.signature(self._driver)
        return {
            name: parameter.default
            for name, parameter in signature.parameters.items()
            if name not in ("testbed", "tracer")
            and parameter.default is not inspect.Parameter.empty
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        return (Cell(self.experiment_id, 0, "all", {}),)

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        kwargs = dict(params)
        if tracer is not None and "tracer" in inspect.signature(self._driver).parameters:
            kwargs["tracer"] = tracer
        result = self._driver(testbed, **kwargs)
        return {
            "experiment_id": result.experiment_id,
            "description": result.description,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "extras": dict(result.extras),
        }

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        (value,) = values
        return ExperimentResult(
            experiment_id=value["experiment_id"],
            description=value["description"],
            headers=tuple(value["headers"]),
            rows=tuple(tuple(row) for row in value["rows"]),
            extras=dict(value["extras"]),
        )


def run_grid(
    grid: ExperimentGrid,
    testbed: Testbed | None = None,
    overrides: dict | None = None,
    tracer=None,
    metrics=None,
) -> ExperimentResult:
    """Execute a grid serially, cell by cell, in index order.

    This is the reference execution path the ``run_fig*`` wrappers use; the
    parallel runner must (and its tests assert it does) produce the same
    result.  Values are normalised through the checkpoint JSON round-trip
    even here, so serial, parallel, and resumed runs aggregate identically
    typed values.

    Args:
        grid: The experiment grid to run.
        testbed: Testbed override (defaults to the grid's standard one).
        overrides: Parameter overrides (see :meth:`ExperimentGrid.resolve`).
        tracer: Optional tracer threaded into every cell.
        metrics: Optional metrics registry threaded into every cell.

    Returns:
        The aggregated :class:`ExperimentResult`.
    """
    tb = testbed or default_testbed(kind=grid.testbed_kind)
    params = grid.resolve(overrides)
    values = [
        normalize_values(grid.run_cell(tb, cell, params, tracer=tracer, metrics=metrics))
        for cell in grid.cells(params)
    ]
    return grid.aggregate(params, values)


def _chunked(values: list, size: int) -> list[list]:
    """Split ``values`` into consecutive groups of ``size`` (cell order)."""
    return [values[i : i + size] for i in range(0, len(values), size)]


def _mean(values: list) -> float:
    """``float(np.mean(...))`` — the exact reduction the serial loops used."""
    return float(np.mean(values))


# --------------------------------------------------------------------- #
# Figures 3 & 4 — mobility model evaluation
# --------------------------------------------------------------------- #


def run_fig3(
    testbed: Testbed | None = None, m_values: Sequence[int] = tuple(range(3, 16))
) -> ExperimentResult:
    """Figure 3: top-``m`` next-location prediction accuracy, m = 3..15.

    Args:
        testbed: Citywide testbed (defaults to the standard one).
        m_values: Prediction-list sizes to evaluate.

    Returns:
        Rows of ``(m, accuracy)``; ``accuracy_at_9`` in extras.
    """
    tb = testbed or default_testbed(kind="citywide")
    accuracy = prediction_accuracy(tb.model, tb.dataset.held_out, m_values)
    rows = tuple((m, accuracy[m]) for m in m_values)
    return ExperimentResult(
        experiment_id="fig3",
        description="location prediction accuracy vs #predicted locations",
        headers=("m", "accuracy"),
        rows=rows,
        extras={"accuracy_at_9": accuracy.get(9)},
    )


def run_fig4(testbed: Testbed | None = None, bins: int = 20) -> ExperimentResult:
    """Figure 4: empirical PDF of predicted PoS values.

    Args:
        testbed: Citywide testbed (defaults to the standard one).
        bins: Histogram bin count over ``[0, 1]``.

    Returns:
        Rows of ``(pos_bin_center, density)``; sample statistics in extras.
    """
    tb = testbed or default_testbed(kind="citywide")
    samples = predicted_pos_samples(tb.model)
    centers, density = histogram_pdf(samples, bins=bins, value_range=(0.0, 1.0))
    rows = tuple((float(c), float(d)) for c, d in zip(centers, density))
    arr = np.asarray(samples)
    return ExperimentResult(
        experiment_id="fig4",
        description="PDF of predicted PoS",
        headers=("pos_bin_center", "density"),
        rows=rows,
        extras={
            "n_samples": len(samples),
            "fraction_below_0.2": float((arr <= 0.2).mean()),
            "mean_pos": float(arr.mean()),
        },
    )


# --------------------------------------------------------------------- #
# Figure 5 — social cost (cell grids)
# --------------------------------------------------------------------- #


class _Fig5aGrid(ExperimentGrid):
    """Single-task social cost vs #users: one cell per (n_users, rep)."""

    experiment_id = "fig5a"
    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {
            "n_users_list": tuple(range(20, 101, 10)),
            "epsilon": 0.5,
            "repeats": 3,
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        return tuple(
            Cell("fig5a", index, f"n{n}-rep{rep}", {"n_users": int(n), "rep": rep})
            for index, (n, rep) in enumerate(
                (n, rep)
                for n in params["n_users_list"]
                for rep in range(params["repeats"])
            )
        )

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        n, rep = cell.params["n_users"], cell.params["rep"]
        generated = testbed.generator.single_task_instance(n, seed=1000 * rep + n)
        instance = generated.instance
        with _span(
            tracer, "winner_determination", algorithm="fptas", n_users=n, rep=rep
        ):
            fptas_cost = fptas_min_knapsack(instance, params["epsilon"]).total_cost
        return {
            "fptas": fptas_cost,
            "opt": optimal_single_task(instance).total_cost,
            "min_greedy": min_greedy_single_task(instance).total_cost,
        }

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        rows = tuple(
            (
                int(n),
                _mean([v["fptas"] for v in group]),
                _mean([v["opt"] for v in group]),
                _mean([v["min_greedy"] for v in group]),
            )
            for n, group in zip(
                params["n_users_list"], _chunked(values, params["repeats"])
            )
        )
        return ExperimentResult(
            experiment_id="fig5a",
            description=f"single-task social cost vs #users (epsilon={params['epsilon']})",
            headers=("n_users", "fptas", "opt", "min_greedy"),
            rows=rows,
            extras={"epsilon": params["epsilon"], "repeats": params["repeats"]},
        )


class _Fig5bGrid(ExperimentGrid):
    """Multi-task social cost vs #users: one cell per (n_users, rep)."""

    experiment_id = "fig5b"
    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {
            "n_users_list": tuple(range(10, 101, 10)),
            "n_tasks": 15,
            "repeats": 3,
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        return tuple(
            Cell("fig5b", index, f"n{n}-rep{rep}", {"n_users": int(n), "rep": rep})
            for index, (n, rep) in enumerate(
                (n, rep)
                for n in params["n_users_list"]
                for rep in range(params["repeats"])
            )
        )

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        n, rep = cell.params["n_users"], cell.params["rep"]
        generated = testbed.generator.multi_task_instance(
            n, params["n_tasks"], seed=2000 * rep + n
        )
        outcome = MultiTaskMechanism().run(
            generated.instance, compute_rewards=False, tracer=tracer
        )
        if metrics is not None:
            metrics.observe_outcome(outcome)
        return {
            "greedy": outcome.social_cost,
            "opt": optimal_multi_task(generated.instance).total_cost,
        }

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        rows = tuple(
            (
                int(n),
                _mean([v["greedy"] for v in group]),
                _mean([v["opt"] for v in group]),
            )
            for n, group in zip(
                params["n_users_list"], _chunked(values, params["repeats"])
            )
        )
        return ExperimentResult(
            experiment_id="fig5b",
            description=f"multi-task social cost vs #users ({params['n_tasks']} tasks)",
            headers=("n_users", "greedy", "opt"),
            rows=rows,
            extras={"n_tasks": params["n_tasks"], "repeats": params["repeats"]},
        )


class _Fig5cGrid(ExperimentGrid):
    """Multi-task social cost vs #tasks: one cell per (n_tasks, rep)."""

    experiment_id = "fig5c"
    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {
            "n_tasks_list": tuple(range(10, 51, 5)),
            "n_users": 30,
            "repeats": 3,
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        return tuple(
            Cell("fig5c", index, f"t{t}-rep{rep}", {"n_tasks": int(t), "rep": rep})
            for index, (t, rep) in enumerate(
                (t, rep)
                for t in params["n_tasks_list"]
                for rep in range(params["repeats"])
            )
        )

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        t, rep = cell.params["n_tasks"], cell.params["rep"]
        generated = testbed.generator.multi_task_instance(
            params["n_users"], t, seed=3000 * rep + t
        )
        outcome = MultiTaskMechanism().run(
            generated.instance, compute_rewards=False, tracer=tracer
        )
        if metrics is not None:
            metrics.observe_outcome(outcome)
        return {
            "greedy": outcome.social_cost,
            "opt": optimal_multi_task(generated.instance).total_cost,
        }

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        rows = tuple(
            (
                int(t),
                _mean([v["greedy"] for v in group]),
                _mean([v["opt"] for v in group]),
            )
            for t, group in zip(
                params["n_tasks_list"], _chunked(values, params["repeats"])
            )
        )
        return ExperimentResult(
            experiment_id="fig5c",
            description=f"multi-task social cost vs #tasks ({params['n_users']} users)",
            headers=("n_tasks", "greedy", "opt"),
            rows=rows,
            extras={"n_users": params["n_users"], "repeats": params["repeats"]},
        )


# --------------------------------------------------------------------- #
# Figure 6 — winners' expected utilities (cell grid)
# --------------------------------------------------------------------- #


class _Fig6Grid(ExperimentGrid):
    """Expected-utility CDFs: one cell per single-task run plus one multi."""

    experiment_id = "fig6"
    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {
            "alpha": 10.0,
            "single_task_runs": 6,
            "single_task_users": 40,
            "multi_task_users": 60,
            "multi_task_tasks": 30,
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        singles = tuple(
            Cell("fig6", rep, f"single-rep{rep}", {"setting": "single", "rep": rep})
            for rep in range(params["single_task_runs"])
        )
        multi = Cell(
            "fig6", params["single_task_runs"], "multi", {"setting": "multi", "rep": 0}
        )
        return singles + (multi,)

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        alpha = params["alpha"]
        if cell.params["setting"] == "single":
            rep = cell.params["rep"]
            mech = SingleTaskMechanism(alpha=alpha, tolerance=1e-6)
            generated = testbed.generator.single_task_instance(
                params["single_task_users"], seed=4000 + rep
            )
            outcome = mech.run(generated.instance, tracer=tracer)
            if metrics is not None:
                metrics.observe_outcome(outcome)
            utilities = []
            for uid in outcome.winners:
                true_pos = contribution_to_pos(
                    generated.instance.contributions[generated.instance.index_of(uid)]
                )
                utilities.append(
                    expected_utility_single(
                        true_pos, outcome.rewards[uid].critical_pos, alpha
                    )
                )
            return {"utilities": utilities}

        mech = MultiTaskMechanism(alpha=alpha)
        generated = testbed.generator.multi_task_instance(
            params["multi_task_users"], params["multi_task_tasks"], seed=4500
        )
        outcome = mech.run(generated.instance, tracer=tracer)
        if metrics is not None:
            metrics.observe_outcome(outcome)
        utilities = [
            expected_utility_multi(
                generated.instance.user_by_id(uid).total_contribution(),
                outcome.rewards[uid].critical_contribution,
                alpha,
            )
            for uid in outcome.winners
        ]
        return {"utilities": utilities}

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        single_utilities: list[float] = []
        for value in values[: params["single_task_runs"]]:
            single_utilities.extend(value["utilities"])
        multi_utilities = list(values[params["single_task_runs"]]["utilities"])

        xs_s, F_s = empirical_cdf(single_utilities)
        xs_m, F_m = empirical_cdf(multi_utilities)
        rows = [("single", float(x), float(f)) for x, f in zip(xs_s, F_s)]
        rows += [("multi", float(x), float(f)) for x, f in zip(xs_m, F_m)]
        return ExperimentResult(
            experiment_id="fig6",
            description=(
                f"empirical CDF of winners' expected utilities (alpha={params['alpha']})"
            ),
            headers=("setting", "utility", "cdf"),
            rows=tuple(rows),
            extras={
                "min_single": min(single_utilities),
                "min_multi": min(multi_utilities),
                "mean_single": _mean(single_utilities),
                "mean_multi": _mean(multi_utilities),
                "n_single": len(single_utilities),
                "n_multi": len(multi_utilities),
            },
        )


# --------------------------------------------------------------------- #
# Figure 7 — achieved vs required PoS (cell grid)
# --------------------------------------------------------------------- #


class _Fig7Grid(ExperimentGrid):
    """Achieved-PoS comparison: one cell per repetition (all four series)."""

    experiment_id = "fig7"
    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {"requirement": 0.8, "n_users": 60, "n_tasks": 30, "repeats": 3}

    def cells(self, params: dict) -> tuple[Cell, ...]:
        return tuple(
            Cell("fig7", rep, f"rep{rep}", {"rep": rep})
            for rep in range(params["repeats"])
        )

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        rep = cell.params["rep"]
        requirement = params["requirement"]
        gen_s = testbed.generator.single_task_instance(
            params["n_users"], requirement=requirement, seed=5000 + rep
        )
        inst = gen_s.instance
        ours = fptas_min_knapsack(inst, 0.5)
        single_ours = achieved_pos(
            inst.contributions[inst.index_of(uid)] for uid in ours.selected
        )
        vcg = st_vcg(inst)
        single_vcg = achieved_pos(
            inst.contributions[inst.index_of(uid)] for uid in vcg.selected
        )

        gen_m = testbed.generator.multi_task_instance(
            params["n_users"], params["n_tasks"], requirement=requirement, seed=5100 + rep
        )
        outcome = MultiTaskMechanism().run(
            gen_m.instance, compute_rewards=False, tracer=tracer
        )
        if metrics is not None:
            metrics.observe_outcome(outcome)
        vcg_m = mt_vcg(gen_m.instance)
        per_task = []
        for task in gen_m.instance.tasks:
            contribs = [
                u.contribution(task.task_id)
                for u in gen_m.instance.users
                if u.user_id in vcg_m.selected and task.task_id in u.task_set
            ]
            per_task.append(achieved_pos(contribs))
        return {
            "single_ours": single_ours,
            "single_vcg": single_vcg,
            "multi_ours": outcome.average_achieved_pos(),
            "multi_vcg": _mean(per_task),
        }

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        requirement = params["requirement"]
        rows = (
            ("single/ours", requirement, _mean([v["single_ours"] for v in values])),
            ("single/ST-VCG", requirement, _mean([v["single_vcg"] for v in values])),
            ("multi/ours", requirement, _mean([v["multi_ours"] for v in values])),
            ("multi/MT-VCG", requirement, _mean([v["multi_vcg"] for v in values])),
        )
        return ExperimentResult(
            experiment_id="fig7",
            description="achieved vs required task PoS",
            headers=("setting", "required", "achieved"),
            rows=rows,
            extras={"repeats": params["repeats"]},
        )


# --------------------------------------------------------------------- #
# Figures 8 & 9 — effect of the PoS requirement (cell grids)
# --------------------------------------------------------------------- #


class _RequirementSweepGrid(ExperimentGrid):
    """Shared cell computation for figs 8/9: one cell per (requirement, rep).

    Both figures sweep the same instances (the legacy ``_requirement_sweep``
    helper); they differ only in which measurements :meth:`aggregate` keeps.
    """

    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {
            "requirements": tuple(np.arange(0.5, 0.91, 0.05).round(2)),
            "n_users": 100,
            "n_tasks": 50,
            "repeats": 2,
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        cells = []
        for T in params["requirements"]:
            for rep in range(params["repeats"]):
                cells.append(
                    Cell(
                        self.experiment_id,
                        len(cells),
                        f"T{float(T):g}-rep{rep}",
                        {"requirement": float(T), "rep": rep},
                    )
                )
        return tuple(cells)

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        T, rep = cell.params["requirement"], cell.params["rep"]
        gen_s = testbed.generator.single_task_instance(
            params["n_users"], requirement=T, seed=6000 + rep
        )
        result = fptas_min_knapsack(gen_s.instance, 0.5)

        gen_m = testbed.generator.multi_task_instance(
            params["n_users"], params["n_tasks"], requirement=T, seed=6100 + rep
        )
        outcome = MultiTaskMechanism().run(
            gen_m.instance, compute_rewards=False, tracer=tracer
        )
        if metrics is not None:
            metrics.observe_outcome(outcome)
        return {
            "selected_single": len(result.selected),
            "cost_single": result.total_cost,
            "selected_multi": len(outcome.winners),
            "cost_multi": outcome.social_cost,
        }

    def _sweep_rows(self, params: dict, values: list[dict]) -> list[tuple]:
        """(T, mean #selected s/m, mean cost s/m) per requirement, in order."""
        rows = []
        for T, group in zip(
            params["requirements"], _chunked(values, params["repeats"])
        ):
            rows.append(
                (
                    float(T),
                    _mean([v["selected_single"] for v in group]),
                    _mean([v["selected_multi"] for v in group]),
                    _mean([v["cost_single"] for v in group]),
                    _mean([v["cost_multi"] for v in group]),
                )
            )
        return rows


class _Fig8Grid(_RequirementSweepGrid):
    experiment_id = "fig8"

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        rows = tuple((T, s, m) for T, s, m, _, _ in self._sweep_rows(params, values))
        return ExperimentResult(
            experiment_id="fig8",
            description="#selected users vs PoS requirement",
            headers=("requirement", "selected_single", "selected_multi"),
            rows=rows,
            extras={
                "n_users": params["n_users"],
                "n_tasks": params["n_tasks"],
                "repeats": params["repeats"],
            },
        )


class _Fig9Grid(_RequirementSweepGrid):
    experiment_id = "fig9"

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        rows = tuple((T, cs, cm) for T, _, _, cs, cm in self._sweep_rows(params, values))
        return ExperimentResult(
            experiment_id="fig9",
            description="social cost vs PoS requirement",
            headers=("requirement", "cost_single", "cost_multi"),
            rows=rows,
            extras={
                "n_users": params["n_users"],
                "n_tasks": params["n_tasks"],
                "repeats": params["repeats"],
            },
        )


# --------------------------------------------------------------------- #
# Single-task sweep — SeedSequence-seeded cell grid
# --------------------------------------------------------------------- #


class _SweepSingleGrid(ExperimentGrid):
    """Single-task FPTAS sweep whose cells are seeded by ``SeedSequence``.

    Unlike the figure grids (which keep their historical arithmetic seed
    formulas for bit-compatibility), this grid derives every cell's seed
    via :func:`repro.simulation.checkpoint.spawn_cell_seeds` — the
    recommended pattern for new experiments: statistically independent
    streams, reproducible from ``(root_seed, cell index)`` alone.
    """

    experiment_id = "sweep-single"
    testbed_kind = "dense"

    def defaults(self) -> dict:
        return {
            "n_users_list": (20, 40, 60, 80),
            "epsilon": 0.5,
            "repeats": 3,
            "root_seed": 777,
        }

    def cells(self, params: dict) -> tuple[Cell, ...]:
        points = [
            (int(n), rep)
            for n in params["n_users_list"]
            for rep in range(params["repeats"])
        ]
        seeds = spawn_cell_seeds(params["root_seed"], len(points))
        return tuple(
            Cell(
                "sweep-single",
                index,
                f"n{n}-rep{rep}",
                {"n_users": n, "rep": rep, "seed": seed},
            )
            for index, ((n, rep), seed) in enumerate(zip(points, seeds))
        )

    def run_cell(self, testbed, cell, params, tracer=None, metrics=None) -> dict:
        n = cell.params["n_users"]
        generated = testbed.generator.single_task_instance(n, seed=cell.params["seed"])
        instance = generated.instance
        with _span(
            tracer,
            "winner_determination",
            algorithm="fptas",
            n_users=n,
            rep=cell.params["rep"],
        ):
            result = fptas_min_knapsack(instance, params["epsilon"])
        achieved = achieved_pos(
            instance.contributions[instance.index_of(uid)] for uid in result.selected
        )
        return {
            "cost": result.total_cost,
            "selected": len(result.selected),
            "achieved": achieved,
        }

    def aggregate(self, params: dict, values: list[dict]) -> ExperimentResult:
        rows = tuple(
            (
                int(n),
                _mean([v["cost"] for v in group]),
                _mean([v["selected"] for v in group]),
                _mean([v["achieved"] for v in group]),
            )
            for n, group in zip(
                params["n_users_list"], _chunked(values, params["repeats"])
            )
        )
        return ExperimentResult(
            experiment_id="sweep-single",
            description=(
                f"single-task FPTAS sweep vs #users (epsilon={params['epsilon']}, "
                "SeedSequence cells)"
            ),
            headers=("n_users", "fptas_cost", "n_selected", "achieved_pos"),
            rows=rows,
            extras={
                "epsilon": params["epsilon"],
                "repeats": params["repeats"],
                "root_seed": params["root_seed"],
            },
        )


# --------------------------------------------------------------------- #
# Grid-backed drivers (thin wrappers over run_grid)
# --------------------------------------------------------------------- #


def run_fig5a(
    testbed: Testbed | None = None,
    n_users_list: Sequence[int] | None = None,
    epsilon: float | None = None,
    repeats: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 5(a): single-task social cost vs #users — FPTAS / OPT / Min-Greedy.

    Args:
        testbed: Dense testbed (defaults to the standard one).
        n_users_list: User counts to sweep (default 20..100 step 10).
        epsilon: FPTAS approximation parameter (default 0.5).
        repeats: Instances averaged per point (default 3).
        tracer: Optional tracer recording winner-determination spans.

    Returns:
        Rows of ``(n_users, fptas, opt, min_greedy)`` mean social costs.
    """
    return run_grid(
        GRIDS["fig5a"],
        testbed,
        {"n_users_list": n_users_list, "epsilon": epsilon, "repeats": repeats},
        tracer=tracer,
    )


def run_fig5b(
    testbed: Testbed | None = None,
    n_users_list: Sequence[int] | None = None,
    n_tasks: int | None = None,
    repeats: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 5(b): multi-task social cost vs #users (Table III setting 1).

    Args:
        testbed: Dense testbed (defaults to the standard one).
        n_users_list: User counts to sweep (default 10..100 step 10).
        n_tasks: Task count per instance (default 15).
        repeats: Instances averaged per point (default 3).
        tracer: Optional tracer threaded into the mechanism.

    Returns:
        Rows of ``(n_users, greedy, opt)`` mean social costs.
    """
    return run_grid(
        GRIDS["fig5b"],
        testbed,
        {"n_users_list": n_users_list, "n_tasks": n_tasks, "repeats": repeats},
        tracer=tracer,
    )


def run_fig5c(
    testbed: Testbed | None = None,
    n_tasks_list: Sequence[int] | None = None,
    n_users: int | None = None,
    repeats: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 5(c): multi-task social cost vs #tasks (Table III setting 2).

    Args:
        testbed: Dense testbed (defaults to the standard one).
        n_tasks_list: Task counts to sweep (default 10..50 step 5).
        n_users: User count per instance (default 30).
        repeats: Instances averaged per point (default 3).
        tracer: Optional tracer threaded into the mechanism.

    Returns:
        Rows of ``(n_tasks, greedy, opt)`` mean social costs.
    """
    return run_grid(
        GRIDS["fig5c"],
        testbed,
        {"n_tasks_list": n_tasks_list, "n_users": n_users, "repeats": repeats},
        tracer=tracer,
    )


def run_fig6(
    testbed: Testbed | None = None,
    alpha: float | None = None,
    single_task_runs: int | None = None,
    single_task_users: int | None = None,
    multi_task_users: int | None = None,
    multi_task_tasks: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 6: empirical CDF of winners' expected utilities, both settings.

    Single-task utilities are pooled over several instances (one instance
    selects only a handful of winners); the multi-task instance alone yields
    a large winner set.

    Args:
        testbed: Dense testbed (defaults to the standard one).
        alpha: Value-of-success scaling in the utility model (default 10).
        single_task_runs: Single-task instances pooled (default 6).
        single_task_users: Users per single-task instance (default 40).
        multi_task_users: Users in the multi-task instance (default 60).
        multi_task_tasks: Tasks in the multi-task instance (default 30).
        tracer: Optional tracer threaded into the mechanisms.

    Returns:
        Interleaved CDF rows ``(setting, utility, cdf)``; pooled
        minima/means and sample counts in extras.
    """
    return run_grid(
        GRIDS["fig6"],
        testbed,
        {
            "alpha": alpha,
            "single_task_runs": single_task_runs,
            "single_task_users": single_task_users,
            "multi_task_users": multi_task_users,
            "multi_task_tasks": multi_task_tasks,
        },
        tracer=tracer,
    )


def run_fig7(
    testbed: Testbed | None = None,
    requirement: float | None = None,
    n_users: int | None = None,
    n_tasks: int | None = None,
    repeats: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 7: achieved task PoS — our mechanisms vs ST-VCG / MT-VCG.

    Achieved PoS is the analytic ``1 − Π(1 − p)`` over each algorithm's
    winner set with the *true* PoS values (multi-task: averaged over tasks).

    Args:
        testbed: Dense testbed (defaults to the standard one).
        requirement: PoS requirement for every task (default 0.8).
        n_users: Users per instance (default 60).
        n_tasks: Tasks per multi-task instance (default 30).
        repeats: Instances averaged (default 3).
        tracer: Optional tracer threaded into the mechanism.

    Returns:
        Four rows ``(setting, required, achieved)`` — single/multi ×
        ours/VCG.
    """
    return run_grid(
        GRIDS["fig7"],
        testbed,
        {
            "requirement": requirement,
            "n_users": n_users,
            "n_tasks": n_tasks,
            "repeats": repeats,
        },
        tracer=tracer,
    )


def run_fig8(
    testbed: Testbed | None = None,
    requirements: Sequence[float] | None = None,
    n_users: int | None = None,
    n_tasks: int | None = None,
    repeats: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 8: number of selected users vs PoS requirement T ∈ [0.5, 0.9].

    Args:
        testbed: Dense testbed (defaults to the standard one).
        requirements: Requirement sweep (default 0.5..0.9 step 0.05).
        n_users: Users per instance (default 100).
        n_tasks: Tasks per multi-task instance (default 50).
        repeats: Instances averaged per point (default 2).
        tracer: Optional tracer threaded into the mechanism.

    Returns:
        Rows of ``(requirement, selected_single, selected_multi)``.
    """
    return run_grid(
        GRIDS["fig8"],
        testbed,
        {
            "requirements": requirements,
            "n_users": n_users,
            "n_tasks": n_tasks,
            "repeats": repeats,
        },
        tracer=tracer,
    )


def run_fig9(
    testbed: Testbed | None = None,
    requirements: Sequence[float] | None = None,
    n_users: int | None = None,
    n_tasks: int | None = None,
    repeats: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Figure 9: social cost vs PoS requirement T ∈ [0.5, 0.9].

    Args:
        testbed: Dense testbed (defaults to the standard one).
        requirements: Requirement sweep (default 0.5..0.9 step 0.05).
        n_users: Users per instance (default 100).
        n_tasks: Tasks per multi-task instance (default 50).
        repeats: Instances averaged per point (default 2).
        tracer: Optional tracer threaded into the mechanism.

    Returns:
        Rows of ``(requirement, cost_single, cost_multi)``.
    """
    return run_grid(
        GRIDS["fig9"],
        testbed,
        {
            "requirements": requirements,
            "n_users": n_users,
            "n_tasks": n_tasks,
            "repeats": repeats,
        },
        tracer=tracer,
    )


def run_sweep_single(
    testbed: Testbed | None = None,
    n_users_list: Sequence[int] | None = None,
    epsilon: float | None = None,
    repeats: int | None = None,
    root_seed: int | None = None,
    tracer=None,
) -> ExperimentResult:
    """Single-task FPTAS sweep with SeedSequence-derived cell seeds.

    Args:
        testbed: Dense testbed (defaults to the standard one).
        n_users_list: User counts to sweep (default ``(20, 40, 60, 80)``).
        epsilon: FPTAS approximation parameter (default 0.5).
        repeats: Instances averaged per point (default 3).
        root_seed: Root of the ``SeedSequence`` cell-seed tree (default
            777); every cell seed is a pure function of this and the cell
            index.
        tracer: Optional tracer recording winner-determination spans.

    Returns:
        Rows of ``(n_users, fptas_cost, n_selected, achieved_pos)``.
    """
    return run_grid(
        GRIDS["sweep-single"],
        testbed,
        {
            "n_users_list": n_users_list,
            "epsilon": epsilon,
            "repeats": repeats,
            "root_seed": root_seed,
        },
        tracer=tracer,
    )


# --------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------- #


def run_ablation_epsilon(
    testbed: Testbed | None = None,
    epsilons: Sequence[float] = (2.0, 1.0, 0.5, 0.25, 0.1),
    n_users: int = 60,
    repeats: int = 3,
) -> ExperimentResult:
    """FPTAS ε ablation: solution cost and runtime vs ε (Theorems 2–3).

    Args:
        testbed: Dense testbed (defaults to the standard one).
        epsilons: Approximation parameters to compare.
        n_users: Users per shared instance.
        repeats: Shared instances averaged.

    Returns:
        Rows of ``(epsilon, mean_ratio, max_ratio, mean_seconds)``.
    """
    tb = testbed or default_testbed()
    instances = [
        tb.generator.single_task_instance(n_users, seed=7000 + rep).instance
        for rep in range(repeats)
    ]
    opt_costs = [optimal_single_task(inst).total_cost for inst in instances]
    rows = []
    for eps in epsilons:
        ratios, times = [], []
        for inst, opt_cost in zip(instances, opt_costs):
            start = time.perf_counter()
            result = fptas_min_knapsack(inst, eps)
            times.append(time.perf_counter() - start)
            ratios.append(result.total_cost / opt_cost)
        rows.append((eps, float(np.mean(ratios)), float(np.max(ratios)), float(np.mean(times))))
    return ExperimentResult(
        experiment_id="ablation_epsilon",
        description="FPTAS cost ratio and runtime vs epsilon",
        headers=("epsilon", "mean_ratio", "max_ratio", "mean_seconds"),
        rows=tuple(rows),
        extras={"n_users": n_users, "repeats": repeats},
    )


def run_ablation_delta_q(
    testbed: Testbed | None = None,
    delta_q_values: Sequence[float] = (0.2, 0.1, 0.05, 0.01),
    n_users: int = 30,
    n_tasks: int = 15,
    repeats: int = 3,
) -> ExperimentResult:
    """Δq ablation: theoretical H(γ) bound vs actual greedy/OPT ratio (Thm 5).

    Args:
        testbed: Dense testbed (defaults to the standard one).
        delta_q_values: Contribution-discretisation steps to evaluate.
        n_users: Users per shared instance.
        n_tasks: Tasks per shared instance.
        repeats: Shared instances averaged.

    Returns:
        Rows of ``(delta_q, mean_gamma, mean_H_gamma_bound, actual_ratio)``.
    """
    tb = testbed or default_testbed()
    mechanism = MultiTaskMechanism()
    rows = []
    actual_ratios = []
    instances = []
    for rep in range(repeats):
        generated = tb.generator.multi_task_instance(n_users, n_tasks, seed=7500 + rep)
        instances.append(generated.instance)
        outcome = mechanism.run(generated.instance, compute_rewards=False)
        opt = optimal_multi_task(generated.instance)
        actual_ratios.append(outcome.social_cost / opt.total_cost)
    actual = float(np.mean(actual_ratios))
    for delta_q in delta_q_values:
        gammas = [gamma_parameter(inst, delta_q) for inst in instances]
        bounds = [greedy_approximation_bound(inst, delta_q) for inst in instances]
        rows.append((delta_q, float(np.mean(gammas)), float(np.mean(bounds)), actual))
    return ExperimentResult(
        experiment_id="ablation_delta_q",
        description="H(gamma) bound vs actual greedy approximation ratio",
        headers=("delta_q", "mean_gamma", "mean_H_gamma_bound", "actual_ratio"),
        rows=tuple(rows),
        extras={"n_users": n_users, "n_tasks": n_tasks},
    )


def run_ablation_smoothing(
    testbed: Testbed | None = None,
    m_values: Sequence[int] = (3, 9, 15),
) -> ExperimentResult:
    """Smoothing ablation: the three estimators compared where they differ.

    Top-``m`` *ranking* accuracy is invariant to all three estimators (they
    are monotone transforms of the transition counts), so the interesting
    comparison is probabilistic **calibration**: the mean probability each
    estimator assigns to the held-out true next location, and how often it
    assigns *zero* — the failure mode of the paper's literal
    ``x_ij/(x_i + l)`` formula, which never smooths unseen transitions
    (DESIGN.md, substitution 3).  Zero-probability predictions matter
    downstream: a task PoS of exactly 0 removes the user from that task's
    market entirely.

    Args:
        testbed: Citywide testbed (defaults to the standard one).
        m_values: Prediction-list sizes (only ``max(m_values)`` is scored).

    Returns:
        One row per estimator with ranking accuracy and calibration stats.
    """
    tb = testbed or default_testbed(kind="citywide")
    fitted = set(tb.model.taxi_ids)
    usable = [p for p in tb.dataset.held_out if p.taxi_id in fitted]
    rows = []
    for smoothing in ("laplace", "paper", "mle"):
        model = MarkovMobilityModel.from_sequences(tb.dataset.train, smoothing=smoothing)
        accuracy = prediction_accuracy(model, tb.dataset.held_out, (max(m_values),))
        assigned = [
            model.transition_prob(p.taxi_id, p.current_cell, p.next_cell)
            for p in usable
        ]
        zero_rate = sum(1 for a in assigned if a == 0.0) / len(assigned)
        rows.append(
            (
                smoothing,
                accuracy[max(m_values)],
                float(np.mean(assigned)),
                zero_rate,
            )
        )
    return ExperimentResult(
        experiment_id="ablation_smoothing",
        description="smoothing estimators: ranking accuracy vs calibration",
        headers=(
            "smoothing",
            f"top{max(m_values)}_accuracy",
            "mean_prob_of_truth",
            "zero_prob_rate",
        ),
        rows=tuple(rows),
        extras={"n_held_out": len(usable)},
    )


# --------------------------------------------------------------------- #
# Grid registry
# --------------------------------------------------------------------- #

#: Every experiment as a schedulable cell grid, keyed by CLI name.  Workers
#: resolve grids from this registry by name, so entries must be importable
#: module state (not per-run objects).
GRIDS: dict[str, ExperimentGrid] = {
    grid.experiment_id: grid
    for grid in (
        SingleCellGrid("fig3", run_fig3, "citywide"),
        SingleCellGrid("fig4", run_fig4, "citywide"),
        _Fig5aGrid(),
        _Fig5bGrid(),
        _Fig5cGrid(),
        _Fig6Grid(),
        _Fig7Grid(),
        _Fig8Grid(),
        _Fig9Grid(),
        _SweepSingleGrid(),
        SingleCellGrid("ablation-epsilon", run_ablation_epsilon, "dense"),
        SingleCellGrid("ablation-delta-q", run_ablation_delta_q, "dense"),
        SingleCellGrid("ablation-smoothing", run_ablation_smoothing, "citywide"),
    )
}
