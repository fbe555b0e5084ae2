"""CLI observability smoke tests (tier-1): run --json writes valid artifacts."""

from __future__ import annotations

import json
import os

import pytest

from repro.__main__ import main
from repro.obs import RunManifest, read_events

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def fig5a_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run") / "fig5a"
    code = main(
        [
            "run",
            "fig5a",
            "--json",
            "--quick",
            "--trace",
            "--n-taxis",
            "60",
            "--out-dir",
            str(out_dir),
        ]
    )
    return code, out_dir


def test_run_json_writes_valid_manifest_and_jsonl(fig5a_run, capsys):
    code, out_dir = fig5a_run
    assert code == 0

    manifest = RunManifest.load(out_dir)
    assert manifest.command == "run"
    assert manifest.experiments == ["fig5a"]
    assert manifest.seed == 42
    assert manifest.config["quick"] is True
    assert manifest.wall_clock_seconds is not None and manifest.wall_clock_seconds > 0
    assert "fig5a.csv" in manifest.artifacts
    assert (out_dir / "fig5a.csv").exists()

    records = read_events(out_dir / manifest.events_file)  # parseable throughout
    names = {r.get("name") for r in records}
    assert "testbed.built" in names
    assert "experiment.end" in names
    assert "winner_determination" in {
        r.get("name") for r in records if r.get("type") == "span_start"
    }


def test_run_json_stdout_is_one_json_document(capsys, tmp_path):
    out_dir = tmp_path / "fig4run"
    assert (
        main(["run", "fig4", "--json", "--quick", "--n-taxis", "60", "--out-dir", str(out_dir)])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["out_dir"] == str(out_dir)
    (experiment,) = payload["experiments"]
    assert experiment["experiment_id"] == "fig4"
    assert experiment["headers"] == ["pos_bin_center", "density"]
    assert experiment["rows"] and experiment["elapsed_seconds"] >= 0


def test_run_json_sends_native_fd1_writes_to_stderr(capfd, monkeypatch, tmp_path):
    """HiGHS prints solver notes to fd 1 itself; under --json they must land
    on stderr and leave stdout to the JSON document."""
    from repro.core import baselines

    milp_select = baselines._milp_select

    def noisy_milp_select(*args, **kwargs):
        os.write(1, b"HighsMipSolverData::transformNewIntegerFeasibleSolution\n")
        return milp_select(*args, **kwargs)

    monkeypatch.setattr(baselines, "_milp_select", noisy_milp_select)
    out_dir = tmp_path / "fig5brun"
    argv = ["run", "fig5b", "--json", "--quick", "--n-taxis", "60", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    out, err = capfd.readouterr()
    (experiment,) = json.loads(out)["experiments"]
    assert experiment["experiment_id"] == "fig5b"
    assert "HighsMipSolverData" in err


def test_report_reconstructs_run(fig5a_run, capsys):
    code, out_dir = fig5a_run
    assert code == 0
    assert main(["report", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "experiments:" in text
    assert "fig5a" in text
    assert "stage timings" in text

    assert main(["report", str(out_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["run_id"].startswith("fig5a-")
    assert payload["stage_seconds"]["winner_determination"] > 0


def test_report_missing_directory_fails_cleanly(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2
    assert "no such run directory" in capsys.readouterr().err


def test_report_html_writes_nonempty_dashboard(fig5a_run, capsys):
    code, out_dir = fig5a_run
    assert code == 0
    assert main(["report", str(out_dir), "--html"]) == 0
    out = capsys.readouterr().out
    report = out_dir / "report.html"
    assert str(report) in out
    html = report.read_text()
    assert len(html) > 1000
    assert html.startswith("<!DOCTYPE html>")
    assert "fig5a" in html
    # Self-contained: no external fetches of any kind.
    for marker in ("http://", "https://", "<script src"):
        assert marker not in html


def test_report_html_custom_out_path(fig5a_run, tmp_path, capsys):
    code, out_dir = fig5a_run
    assert code == 0
    target = tmp_path / "custom.html"
    assert main(["report", str(out_dir), "--html", str(target)]) == 0
    capsys.readouterr()
    assert target.exists() and target.stat().st_size > 0


def test_report_watch_requires_html(fig5a_run, capsys):
    code, out_dir = fig5a_run
    assert code == 0
    assert main(["report", str(out_dir), "--watch"]) == 2
    assert "--watch requires --html" in capsys.readouterr().err


def test_report_profile_prints_attribution_and_writes_files(fig5a_run, capsys):
    code, out_dir = fig5a_run
    assert code == 0
    assert main(["report", str(out_dir), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "coverage" in out
    assert (out_dir / "profile.json").exists()
    assert (out_dir / "profile.folded").exists()
    payload = json.loads((out_dir / "profile.json").read_text())
    assert payload["root_seconds"] > 0
    assert payload["coverage"] >= 0.95


def test_run_progress_prints_heartbeats(tmp_path, capsys):
    out_dir = tmp_path / "fig5a-progress"
    assert (
        main(
            [
                "run",
                "fig5a",
                "--quick",
                "--progress",
                "--n-taxis",
                "60",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "cells" in err  # grid heartbeat surfaced on stderr
    # --progress implies tracing, so the events stream exists and carries
    # the heartbeat events the console line was rendered from.
    manifest = RunManifest.load(out_dir)
    records = read_events(out_dir / manifest.events_file)
    progress = [r for r in records if r.get("name", "").endswith(".progress")]
    assert progress and progress[-1].get("final") is True
