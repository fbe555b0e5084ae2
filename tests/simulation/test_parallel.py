"""Parallel runner: serial/parallel equality, checkpoint resume, CLI flags.

The headline guarantees under test:

* ``workers=N`` produces the **same CSV and the same (deterministic)
  metrics** as ``workers=1``, which itself equals the plain ``run_fig*``
  drivers — sharding must not change a single bit of science output;
* an interrupted run resumed from its checkpoint recomputes **only** the
  missing cells, and the merged result matches an uninterrupted run.

Every registry metric (counters, auction metrics, value histograms) is
deterministic and compared exactly; wall-clock stage time lives in tracer
spans, not in the registry.
"""

import pytest

from repro.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simulation.checkpoint import (
    CHECKPOINT_NAME,
    CheckpointLog,
    load_checkpoint,
)
from repro.simulation.experiments import GRIDS, default_testbed, run_fig5a
from repro.simulation.parallel import (
    ExperimentRunner,
    chunk_indices,
    default_chunk_size,
)

N_TAXIS = 60  # small fleet: testbed builds in ~a second, cells in ~10ms

FIG5A = {"n_users_list": (10, 14), "repeats": 2}
FIG5B = {"n_users_list": (10, 14), "n_tasks": 5, "repeats": 1}
SWEEP = {"n_users_list": (10, 14), "repeats": 2}


@pytest.fixture(scope="module", autouse=True)
def warm_testbed():
    """Build the shared testbed once; forked workers inherit the cache."""
    default_testbed(n_taxis=N_TAXIS, seed=42, kind="dense")


def run_with(workers, name, overrides, completed=None, checkpoint=None, tracer=None):
    registry = MetricsRegistry()
    with ExperimentRunner(
        workers=workers,
        n_taxis=N_TAXIS,
        metrics=registry,
        completed=completed,
        checkpoint=checkpoint,
        tracer=tracer,
    ) as runner:
        result, stats = runner.run(name, overrides)
    return result, stats, registry


class TestChunking:
    def test_chunk_indices_cover_exactly(self):
        for n in (0, 1, 5, 16):
            for size in (1, 2, 7):
                chunks = chunk_indices(n, size)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(n))
                assert all(len(chunk) <= size for chunk in chunks)

    def test_default_chunk_size(self):
        assert default_chunk_size(1, workers=8) == 1
        assert default_chunk_size(200, workers=4) == 13

    @pytest.mark.parametrize("size", [0, -3])
    def test_non_positive_chunk_size_rejected(self, size):
        # chunk_indices(n, -3) yields no chunks, so such a run would execute
        # no cell at all; 0 would silently fall back to the default.
        with pytest.raises(ValueError, match="chunk_size"):
            ExperimentRunner(workers=2, n_taxis=N_TAXIS, chunk_size=size)


class TestGridWellFormedness:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_cells_are_canonical(self, name):
        grid = GRIDS[name]
        params = grid.resolve()
        cells = grid.cells(params)
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert len({cell.cell_id for cell in cells}) == len(cells)
        assert all(cell.experiment == name for cell in cells)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_resolve_rejects_unknown_keys(self, name):
        with pytest.raises(ValueError, match="unknown parameter"):
            GRIDS[name].resolve({"definitely_not_a_parameter": 1})

    def test_resolve_drops_none_overrides(self):
        params = GRIDS["fig5a"].resolve({"epsilon": None, "repeats": 2})
        assert params["epsilon"] == 0.5
        assert params["repeats"] == 2


class TestSerialParallelEquality:
    @pytest.mark.parametrize(
        "name,overrides", [("fig5a", FIG5A), ("fig5b", FIG5B), ("sweep-single", SWEEP)]
    )
    def test_workers_4_matches_workers_1(self, name, overrides):
        serial, s1, m1 = run_with(1, name, overrides)
        parallel, s4, m4 = run_with(4, name, overrides)
        assert serial.to_csv() == parallel.to_csv()
        assert m1.to_dict() == m4.to_dict()
        assert s1["executed"] == s4["executed"] == s1["total"]
        assert s4["workers"] == 4

    def test_serial_runner_matches_plain_driver(self):
        testbed = default_testbed(n_taxis=N_TAXIS, seed=42, kind="dense")
        plain = run_fig5a(testbed, **FIG5A)
        runner_result, _, _ = run_with(1, "fig5a", FIG5A)
        assert plain.to_csv() == runner_result.to_csv()

    def test_chunk_size_does_not_change_results(self):
        baseline, _, _ = run_with(1, "fig5a", FIG5A)
        registry = MetricsRegistry()
        with ExperimentRunner(
            workers=2, n_taxis=N_TAXIS, chunk_size=3, metrics=registry
        ) as runner:
            chunked, stats = runner.run("fig5a", FIG5A)
        assert stats["chunk_size"] == 3
        assert baseline.to_csv() == chunked.to_csv()

    def test_parallel_trace_records_are_namespaced(self):
        tracer = Tracer()
        _, stats, _ = run_with(4, "fig5a", FIG5A, tracer=tracer)
        ends = tracer.events("cell.end")
        assert len(ends) == stats["executed"]
        spans = [r for r in tracer.records if r["type"] == "span_start"]
        assert spans, "worker spans should be forwarded to the parent tracer"
        assert all(r["span_id"] > 1_000_000 for r in spans)
        assert all("cell" in r and r["experiment"] == "fig5a" for r in spans)


class TestCheckpointResume:
    def full_run(self, tmp_path, name, overrides):
        path = tmp_path / CHECKPOINT_NAME
        with CheckpointLog(path) as log:
            result, stats, registry = run_with(1, name, overrides, checkpoint=log)
        return path, result, registry

    def test_interrupted_run_resumes_without_rerunning(self, tmp_path):
        path, full_result, full_metrics = self.full_run(tmp_path, "fig5a", FIG5A)
        records = path.read_text().splitlines()
        assert len(records) == 4
        # Simulate a kill after two cells: keep only the first two records.
        path.write_text("\n".join(records[:2]) + "\n")

        completed = load_checkpoint(path)
        assert len(completed) == 2
        with CheckpointLog(path) as log:
            resumed, stats, resumed_metrics = run_with(
                2, "fig5a", FIG5A, completed=completed, checkpoint=log
            )
        assert stats["skipped"] == 2
        assert stats["executed"] == 2  # only the unfinished cells re-execute
        assert resumed.to_csv() == full_result.to_csv()
        assert resumed_metrics.to_dict() == full_metrics.to_dict()
        # The checkpoint now covers the full grid: a second resume runs nothing.
        completed = load_checkpoint(path)
        _, stats2, _ = run_with(1, "fig5a", FIG5A, completed=completed)
        assert stats2["executed"] == 0 and stats2["skipped"] == 4

    def test_resume_merges_checkpointed_metrics(self, tmp_path):
        # fig5b cells observe auction outcomes; those observations must
        # survive the checkpoint round-trip, not just the cell values.
        path, _, full_metrics = self.full_run(tmp_path, "fig5b", FIG5B)
        completed = load_checkpoint(path)
        _, stats, resumed_metrics = run_with(
            1, "fig5b", FIG5B, completed=completed
        )
        assert stats["executed"] == 0
        full = full_metrics.to_dict()
        assert full["counters"]["auction.runs"] == 2.0
        assert resumed_metrics.to_dict() == full

    def test_resume_rejects_changed_params(self, tmp_path):
        path, _, _ = self.full_run(tmp_path, "fig5a", FIG5A)
        completed = load_checkpoint(path)
        with pytest.raises(ValueError, match="different parameters"):
            run_with(1, "fig5a", {**FIG5A, "epsilon": 0.25}, completed=completed)

    def test_torn_final_record_resumes_cleanly(self, tmp_path):
        path, full_result, _ = self.full_run(tmp_path, "fig5a", FIG5A)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # tear the last record
        completed = load_checkpoint(path)
        assert len(completed) == 3
        resumed, stats, _ = run_with(1, "fig5a", FIG5A, completed=completed)
        assert stats["executed"] == 1
        assert resumed.to_csv() == full_result.to_csv()


class TestCliIntegration:
    def read_csv(self, out_dir, name="fig5a"):
        return (out_dir / f"{name}.csv").read_text()

    def cli(self, *argv):
        return main(["run", *argv])

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        base = ["fig5a", "--quick", "--n-taxis", str(N_TAXIS)]
        assert self.cli(*base, "--workers", "1", "--out-dir", str(serial_dir)) == 0
        assert self.cli(*base, "--workers", "4", "--out-dir", str(parallel_dir)) == 0
        capsys.readouterr()
        assert self.read_csv(serial_dir) == self.read_csv(parallel_dir)
        assert (serial_dir / "metrics.json").read_text() == (
            parallel_dir / "metrics.json"
        ).read_text()

    def test_resume_completes_interrupted_run(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        base = ["fig5a", "--quick", "--n-taxis", str(N_TAXIS)]
        assert self.cli(*base, "--out-dir", str(out_dir)) == 0
        full_csv = self.read_csv(out_dir)
        # Simulate the interrupt: drop the second cell's checkpoint record.
        checkpoint = out_dir / CHECKPOINT_NAME
        records = checkpoint.read_text().splitlines()
        checkpoint.write_text(records[0] + "\n")

        assert self.cli(*base, "--resume", str(out_dir)) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "1 cell(s) already checkpointed" in out
        assert self.read_csv(out_dir) == full_csv
        import json

        manifest = json.loads((out_dir / "MANIFEST.json").read_text())
        assert manifest["cells"]["fig5a"] == {
            **manifest["cells"]["fig5a"],
            "executed": 1,
            "skipped": 1,
            "total": 2,
        }

    def test_resume_refuses_mismatched_config(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert (
            self.cli(
                "fig5a", "--quick", "--n-taxis", str(N_TAXIS), "--out-dir", str(out_dir)
            )
            == 0
        )
        code = self.cli("fig5a", "--quick", "--n-taxis", "99", "--resume", str(out_dir))
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err
