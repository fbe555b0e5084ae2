"""The benchmark's two workloads: ``paper`` and ``fleet``.

Each workload is built from the run's seed, gets ready in :meth:`setup`
(timed as ``setup_s``) and then repeats identical rounds of operations
(:meth:`run_round`).  Every piece of timed work goes through
:meth:`Round.work`, which records it as one step, in the same order in
every round; an operation's correctness check runs right after its work,
outside the timed region.  Everything goes through the program's public
entry points with its default settings.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from repro.core.multi_task import MultiTaskMechanism
from repro.mobility.markov import MarkovMobilityModel
from repro.queue import JsonlBackend
from repro.simulation.checkpoint import CHECKPOINT_NAME
from repro.simulation.engine import ExecutionSimulator
from repro.simulation.experiments import GRIDS, default_testbed
from repro.simulation.parallel import ExperimentRunner
from repro.workload.config import table2_defaults
from repro.workload.generator import WorkloadGenerator


@dataclass
class Round:
    """Timing and outcomes of one round.

    ``steps`` holds the wall time of each piece of timed work, in call
    order; ``ops`` holds one ``(name, status, detail)`` per operation,
    status ``ok``, ``error`` (it raised) or ``check`` (a correctness check
    failed).
    """

    recorder: object = None
    steps: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.steps)

    def work(self, fn, *args):
        if self.recorder is not None:
            self.recorder.active = True
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.steps.append(perf_counter() - start)
            if self.recorder is not None:
                self.recorder.active = False

    def op(self, name: str, stages, check) -> None:
        """Run one operation's work, then its check (untimed).

        ``stages`` are callables, each timed as its own step: the first
        takes no argument, each later one the result of the one before.
        """
        try:
            result = self.work(stages[0])
            for stage in stages[1:]:
                result = self.work(stage, result)
        except Exception:
            self.ops.append((name, "error", traceback.format_exc(limit=4)))
            return
        try:
            problems = check(result)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        self.ops.append((name, "check" if problems else "ok", problems))

    def fail_all(self, names) -> None:
        detail = traceback.format_exc(limit=4)
        self.ops.extend((name, "error", detail) for name in names)


# --------------------------------------------------------------------- #
# paper: every experiment of `repro run all`, serially
# --------------------------------------------------------------------- #

#: Grid overrides that fit one pass over all thirteen experiments into a
#: round of about 6 s, so that a run repeats it six times or more (see
#: ``run.fastest_round``): sweeps thinned but still spanning the paper's
#: Table III sizes, one repetition per point.  The multi-task OPT MILP
#: (fig5b) and the priced single-task run (fig6) are kept small: their
#: time depends on the draw far more than the others' (one fig5b solve
#: took 0.1-1.8 s at 60 users over six testbeds, one fig6 run 0.9-2.1 s at
#: 30 users), and a large one would make the round's time a lottery over
#: the testbed seed.
PAPER_OVERRIDES = {
    "fig3": {},
    "fig4": {},
    "fig5a": {"n_users_list": (20, 60, 100), "repeats": 1},
    "fig5b": {"n_users_list": (20, 30), "repeats": 1},
    "fig5c": {"n_tasks_list": (10, 30, 50), "repeats": 1},
    "fig6": {"single_task_runs": 1, "single_task_users": 20},
    "fig7": {"repeats": 1},
    "fig8": {"requirements": (0.8,), "repeats": 1},
    "fig9": {"requirements": (0.8,), "repeats": 1},
    "sweep-single": {"repeats": 1},
    "ablation-epsilon": {"repeats": 1},
    "ablation-delta-q": {"repeats": 1},
    "ablation-smoothing": {},
}

#: The experiments each testbed runs, in groups of about equal time.  A
#: testbed's draw moves the time of every experiment run on it together,
#: so spreading the experiments over five testbeds averages that out of a
#: round.  Group ``g`` runs on testbed seed ``seed + PAPER_SEED_STRIDE * g``;
#: the first group, which holds the citywide experiments, keeps the run's
#: own seed.  fig8 and fig9 share a testbed, as in ``repro run all``, where
#: they compute the same cells.
PAPER_GROUPS = (
    ("fig3", "fig4", "fig6", "fig7", "ablation-delta-q", "ablation-smoothing"),
    ("fig8", "fig9"),
    ("fig5a",),
    ("fig5b", "fig5c"),
    ("sweep-single", "ablation-epsilon"),
)
PAPER_SEED_STRIDE = 1000
assert sorted(sum(PAPER_GROUPS, ())) == sorted(GRIDS) == sorted(PAPER_OVERRIDES)

PAPER_N_TAXIS = 250


class PaperWorkload:
    """Set-up builds the testbeds (``default_testbed``, as the CLI does);
    a round runs every grid through ``ExperimentRunner``, one runner per
    testbed group, with a JSONL ledger and writes each CSV, as ``repro run
    all`` does."""

    default_seed = 42

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.rounds_done = 0

    def _testbed_seed(self, group: int) -> int:
        return self.seed + PAPER_SEED_STRIDE * group

    def setup(self) -> None:
        for group, names in enumerate(PAPER_GROUPS):
            for kind in sorted({GRIDS[name].testbed_kind for name in names}):
                default_testbed(n_taxis=PAPER_N_TAXIS, seed=self._testbed_seed(group), kind=kind)

    def _params(self, name: str) -> dict:
        params = GRIDS[name].resolve(PAPER_OVERRIDES[name])
        params.setdefault("requirement", table2_defaults().pos_requirement)
        return params

    def run_round(self, rnd: Round) -> None:
        out = self.run_dir / f"round-{self.rounds_done}"
        self.rounds_done += 1
        for group, names in enumerate(PAPER_GROUPS):
            self._run_group(rnd, out / f"testbed-{group}", self._testbed_seed(group), names)

    def _run_group(self, rnd: Round, out: Path, testbed_seed: int, names) -> None:
        out.mkdir(parents=True, exist_ok=True)

        def open_runner():
            ledger = JsonlBackend(out / CHECKPOINT_NAME)
            runner = ExperimentRunner(
                workers=1, n_taxis=PAPER_N_TAXIS, seed=testbed_seed, backend=ledger
            )
            return ledger, runner

        ledger, runner = rnd.work(open_runner)
        try:
            for name in [name for name in GRIDS if name in names]:

                def experiment(name=name):
                    result, _stats = runner.run(name, PAPER_OVERRIDES[name])
                    path = out / f"{name}.csv"
                    result.save_csv(path)
                    return path

                rnd.op(
                    name,
                    [experiment],
                    lambda path, name=name: checks.check_experiment(
                        name, path, self._params(name)
                    ),
                )
        finally:
            rnd.work(lambda: (runner.close(), ledger.close()))


# --------------------------------------------------------------------- #
# fleet: traces -> Markov fit -> instances -> winner determination
# --------------------------------------------------------------------- #

FLEET_TAXIS = 100_000
#: Ring size.  On 800 cells only 0.97-1.2x as many taxis as users reach the
#: 200-cell task pool, and the generator refuses some seeds' instances
#: ("could not find enough taxis ..."); on 400 cells the margin is >= 1.5x.
FLEET_CELLS = 400
FLEET_SLOTS = 24
FLEET_USERS = 50_000
FLEET_TASKS = 200
FLEET_REQUIREMENTS = (0.5, 0.6, 0.7, 0.8, 0.9)


def ring_traces(n_taxis: int, n_cells: int, n_slots: int, seed: int) -> dict[int, list[int]]:
    """Ring-walk traces: each taxi starts on a random cell of an
    ``n_cells`` ring and steps -1, 0 or +1 per slot."""
    rng = np.random.default_rng(seed)
    start = rng.integers(0, n_cells, size=n_taxis)
    steps = rng.integers(-1, 2, size=(n_taxis, n_slots - 1))
    cells = np.empty((n_taxis, n_slots), dtype=np.int64)
    cells[:, 0] = start
    cells[:, 1:] = (start[:, None] + np.cumsum(steps, axis=1)) % n_cells
    return dict(enumerate(cells.tolist()))


class FleetWorkload:
    """Set-up makes the traces; a round fits the Markov model, feeds one
    ``WorkloadGenerator``, clears one instance per PoS requirement for
    winners only (``compute_rewards=False``) and dispatches its winners
    once (``ExecutionSimulator.simulate_multi``)."""

    default_seed = 7

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir

    def setup(self) -> None:
        self.traces = ring_traces(FLEET_TAXIS, FLEET_CELLS, FLEET_SLOTS, self.seed)

    @staticmethod
    def check(result) -> list[str]:
        instance, outcome, execution = result
        winners = outcome.winners
        users_by_id = {u.user_id: u for u in instance.users if u.user_id in winners}
        return checks.check_allocation(instance, outcome, users_by_id) + checks.check_settlement(
            instance, outcome, execution, users_by_id
        )

    def run_round(self, rnd: Round) -> None:
        generator = rnd.work(
            lambda: WorkloadGenerator(
                MarkovMobilityModel.from_sequences(self.traces), seed=self.seed
            )
        )
        for k, requirement in enumerate(FLEET_REQUIREMENTS):

            def generate(requirement=requirement, k=k):
                return generator.multi_task_instance(
                    FLEET_USERS, FLEET_TASKS, requirement=requirement, seed=self.seed + k
                ).instance

            def clear(instance):
                return instance, MultiTaskMechanism().run(instance, compute_rewards=False)

            def dispatch(cleared, k=k):
                return *cleared, ExecutionSimulator(seed=self.seed + k).simulate_multi(*cleared)

            rnd.op(f"auction-T{requirement:g}", [generate, clear, dispatch], self.check)


WORKLOADS = {
    "paper": PaperWorkload,
    "fleet": FleetWorkload,
}

#: Operations per round, used to count a round that could not start.
OPS_PER_ROUND = {
    "paper": len(GRIDS),
    "fleet": len(FLEET_REQUIREMENTS),
}
