"""Dashboard renderer tests: golden-file comparison and --watch semantics.

The fixture under ``fixtures/run-fixture/`` is a hand-written run directory
with stable span ids and ``ts`` values so the deterministic render is
byte-reproducible.  Regenerate the golden with::

    PYTHONPATH=src python -c "
    from pathlib import Path
    from repro.obs.dashboard import render_dashboard
    fx = Path('tests/obs/fixtures/run-fixture')
    fx.joinpath('report.golden.html').write_text(render_dashboard(
        fx, deterministic=True,
        bench_paths=[fx / 'BENCH_demo.json'], history_path=fx / 'history.jsonl'))"
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.obs.dashboard import (
    REPORT_NAME,
    render_dashboard,
    watch_dashboard,
    write_dashboard,
)

pytestmark = pytest.mark.obs

FIXTURE = Path(__file__).parent / "fixtures" / "run-fixture"


def _render_fixture(run_dir: Path) -> str:
    return render_dashboard(
        run_dir,
        deterministic=True,
        bench_paths=[run_dir / "BENCH_demo.json"],
        history_path=run_dir / "history.jsonl",
    )


def test_golden_html() -> None:
    golden = (FIXTURE / "report.golden.html").read_text()
    assert _render_fixture(FIXTURE) == golden


def test_render_is_deterministic() -> None:
    assert _render_fixture(FIXTURE) == _render_fixture(FIXTURE)


def test_golden_is_self_contained() -> None:
    html = (FIXTURE / "report.golden.html").read_text()
    for marker in ("http://", "https://", "<script src", "@import", "<link"):
        assert marker not in html
    assert "<svg" in html
    assert "demo-fixture" in html


def test_golden_renders_workload_stage_split() -> None:
    # The fixture's demo_workload_sweep carries per-stage timings: the
    # bench section must chart fit vs generate and table both columns.
    html = (FIXTURE / "report.golden.html").read_text()
    assert "demo_workload_sweep" in html
    assert ">fit<" in html and ">generate<" in html
    assert "fit s" in html and "generate s" in html


def test_golden_flags_history_regression() -> None:
    # Fixture ledger: best speedup 12.0, latest 8.0 < 0.8 * 12.0 -> flagged.
    html = (FIXTURE / "report.golden.html").read_text()
    assert "flag" in html


def test_write_dashboard_atomic(tmp_path: Path) -> None:
    run_dir = tmp_path / "run"
    shutil.copytree(FIXTURE, run_dir)
    out = write_dashboard(run_dir)
    assert out == run_dir / REPORT_NAME
    assert out.read_text().startswith("<!DOCTYPE html>")
    # No temp files left behind by the atomic-replace protocol.
    assert not list(run_dir.glob(".*.tmp-*"))


def test_watch_rerenders_on_append(tmp_path: Path) -> None:
    run_dir = tmp_path / "run"
    shutil.copytree(FIXTURE, run_dir)
    events = run_dir / "events.jsonl"
    out = run_dir / REPORT_NAME

    snapshots: list[str] = []

    def on_render(path: Path, count: int) -> None:
        snapshots.append(path.read_text())
        if count == 1:
            # Grow the event log between renders; watch must pick it up.
            extra = {
                "type": "event",
                "span_id": None,
                "name": "pricing.progress",
                "done": 5,
                "total": 5,
                "rate": 50.0,
                "final": True,
                "mechanism": "multi_task",
            }
            with events.open("a") as fh:
                fh.write(json.dumps(extra) + "\n")

    renders = watch_dashboard(
        run_dir,
        interval=0.05,
        max_renders=2,
        on_render=on_render,
        deterministic=True,
        bench_paths=[run_dir / "BENCH_demo.json"],
        history_path=run_dir / "history.jsonl",
    )
    assert renders == 2
    assert len(snapshots) == 2
    # Each observed file is a complete document (atomic replacement: readers
    # never see a partial write), and the second render reflects the append.
    for html in snapshots:
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
    assert snapshots[0] != snapshots[1]
    assert out.exists()


def test_watch_is_quiescent_without_changes(tmp_path: Path) -> None:
    run_dir = tmp_path / "run"
    shutil.copytree(FIXTURE, run_dir)
    renders: list[int] = []

    def on_render(path: Path, count: int) -> None:
        renders.append(count)
        if count == 1:
            # Stop the loop by raising; watch_dashboard re-raises
            # KeyboardInterrupt to its caller in the CLI.
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        watch_dashboard(
            run_dir,
            interval=0.05,
            max_renders=5,
            on_render=on_render,
            deterministic=True,
        )
    assert renders == [1]
