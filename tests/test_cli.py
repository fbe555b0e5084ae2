"""Tests for the `python -m repro` command-line interface."""

import json
import os

import pytest

from repro.__main__ import EXPERIMENTS, build_parser, main

FIG4 = ["run", "fig4", "--n-taxis", "60", "--seed", "5", "--quick"]


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.experiment == "fig3"
        assert args.n_taxis == 250
        assert args.seed == 42

    def test_run_accepts_all(self):
        args = build_parser().parse_args(["run", "all"])
        assert args.experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentTable:
    def test_every_figure_present(self):
        for fig in ("fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "fig9"):
            assert fig in EXPERIMENTS

    def test_kinds_valid(self):
        assert {kind for _, kind in EXPERIMENTS.values()} <= {"dense", "citywide"}


class TestMain:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig5a" in output and "ablation-smoothing" in output

    def test_run_small_experiment(self, capsys):
        # fig4 on a tiny fleet: fast enough for a unit test.
        assert main(["run", "fig4", "--n-taxis", "60", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "[fig4]" in output
        assert "fraction_below_0.2" in output


class TestCountFlags:
    @pytest.mark.parametrize("flag", ["--workers", "--chunk-size"])
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_parser_rejects_non_positive_counts(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "fig4", flag, value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestEnvironmentCannotSteerRun:
    """Only the command line configures a run: the variables that once
    picked kernels and pricing fan-out are neither read nor written."""

    RETIRED = (
        "REPRO_KERNEL",
        "REPRO_WORKLOAD_KERNEL",
        "REPRO_PRICE_WORKERS",
        "REPRO_PRICE_BACKEND",
    )

    def test_bogus_variables_change_nothing(self, tmp_path, monkeypatch):
        for name in self.RETIRED:
            monkeypatch.delenv(name, raising=False)
        clean_dir = tmp_path / "clean"
        assert main([*FIG4, "--out-dir", str(clean_dir)]) == 0

        for name in self.RETIRED:
            monkeypatch.setenv(name, "bogus")
        before = dict(os.environ)
        steered_dir = tmp_path / "steered"
        assert main([*FIG4, "--out-dir", str(steered_dir)]) == 0
        assert dict(os.environ) == before
        assert (steered_dir / "fig4.csv").read_text() == (
            clean_dir / "fig4.csv"
        ).read_text()


class TestResumeOldManifest:
    def test_retired_config_keys_do_not_block_resume(self, tmp_path):
        """A run directory written while kernels and fan-out were run
        options still resumes, recomputing nothing it checkpointed."""
        out_dir = tmp_path / "run"
        assert main([*FIG4, "--out-dir", str(out_dir)]) == 0
        manifest_path = out_dir / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(
            kernel="reference", workload_kernel="reference", price_workers="2"
        )
        manifest_path.write_text(json.dumps(manifest))

        assert main([*FIG4, "--resume", str(out_dir)]) == 0
        resumed = json.loads(manifest_path.read_text())["cells"]["fig4"]
        assert resumed["executed"] == 0
        assert resumed["skipped"] == resumed["total"] > 0
