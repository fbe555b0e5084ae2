"""Self-contained HTML dashboard for a run directory (stdlib + inline SVG).

``python -m repro report <run-dir> --html`` renders everything the run
directory records into one ``report.html`` with **zero third-party
dependencies** — openable from a file:// URL on an air-gapped machine:

* manifest provenance (run id, seed, config, platform, packages);
* live progress (latest ``*.progress`` heartbeat per phase);
* the distributed queue, when the directory holds a ``queue.db``:
  per-state cell counts, per-worker liveness from heartbeat age, and
  the reclaimed-lease log (read-only — rendering never touches a live
  queue);
* a stage-timing **waterfall** built from span ``ts`` offsets;
* the span profiler's hotspot attribution (self vs child time);
* metrics tables (``metrics.json``) and per-experiment summaries;
* per-winner payment explanations from the audit trail;
* kernel/pricing scaling curves from ``BENCH_*.json`` dumps;
* speedup-over-time trajectories from the bench history ledger
  (``benchmarks/results/history.jsonl``), flagged against the best
  historical record.

``--watch`` re-renders whenever ``events.jsonl`` grows, **atomically**
(write to a temp file in the same directory, then ``os.replace``), so a
browser refreshing mid-render never sees a torn page and a running
``ExperimentRunner`` or bench sweep can be monitored live.  Event reads
in watch mode tolerate a torn final line (the reader races the writer —
see :mod:`repro.obs.events`).

Charts follow the repo's dataviz conventions: categorical slots blue →
orange in fixed order, an ordinal blue ramp for waterfall depth, 2px
lines with ≥8px markers, recessive grids, native ``<title>`` tooltips,
and a table view beside every chart.  Both light and dark modes are
defined from the same validated palette via CSS custom properties.
"""

from __future__ import annotations

import html
import json
import os
import time
from pathlib import Path

from .events import read_events
from .manifest import MANIFEST_NAME, RunManifest
from .profiler import build_profile
from .progress import PROGRESS_SUFFIX
from .report import RunReport, build_report

__all__ = ["render_dashboard", "write_dashboard", "watch_dashboard"]

REPORT_NAME = "report.html"

#: Reference categorical palette (validated; see docs/OBSERVABILITY.md).
_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --grid: #e3e2de;
  --series-1: #2a78d6; --series-2: #eb6834;
  --wf-0: #2a78d6; --wf-1: #5598e7; --wf-2: #86b6ef;
  --flag: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #252524;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --grid: #383835;
    --series-1: #3987e5; --series-2: #d95926;
    --wf-0: #3987e5; --wf-1: #5598e7; --wf-2: #86b6ef;
    --flag: #e66767;
  }
}
body { background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 960px;
  padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: 0.95rem; color: var(--text-secondary); }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { text-align: left; padding: 2px 12px 2px 0; font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 600; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; }
pre { background: var(--surface-2); padding: 0.6rem; overflow-x: auto;
  border-radius: 4px; font-size: 12px; }
svg text { fill: var(--text-secondary); font: 11px system-ui, sans-serif; }
.meta { color: var(--text-secondary); }
.flag { color: var(--flag); font-weight: 600; }
.bar-track { background: var(--surface-2); border-radius: 4px; height: 10px;
  width: 260px; display: inline-block; vertical-align: middle; }
.bar-fill { background: var(--series-1); border-radius: 4px; height: 10px; }
details summary { cursor: pointer; color: var(--text-secondary); }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _fmt(value, digits: int = 4) -> str:
    """Stable numeric formatting (goldens depend on it)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _esc(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}g}"


def _table(headers: list[str], rows: list[list], numeric_from: int = 1) -> str:
    num_attr = ' class="num"'
    head = "".join(
        f"<th{num_attr if i >= numeric_from else ''}>{_esc(h)}</th>"
        for i, h in enumerate(headers)
    )
    body = []
    for row in rows:
        cells = "".join(
            f"<td{num_attr if i >= numeric_from else ''}>{_fmt(v)}</td>"
            for i, v in enumerate(row)
        )
        body.append(f"<tr>{cells}</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


# --------------------------------------------------------------------- #
# SVG charts
# --------------------------------------------------------------------- #


def _x_scale(values: list[float], width: float) -> "callable":
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return lambda v: (v - lo) / span * width


def _svg_line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    x_label: str,
    y_label: str,
    width: int = 420,
    height: int = 180,
) -> str:
    """A small line chart: ≤2 categorical series, direct-labeled line ends,
    recessive grid, ``<title>`` tooltips on every ≥8px marker."""
    pad_l, pad_r, pad_t, pad_b = 46, 86, 10, 26
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        return ""
    sx = _x_scale(xs, plot_w)
    y_hi = max(max(ys), 1e-12)
    sy = lambda v: plot_h - (v / y_hi) * plot_h  # noqa: E731 — local scale
    colors = ["var(--series-1)", "var(--series-2)"]
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'role="img" aria-label="{_esc(y_label)} vs {_esc(x_label)}">',
        f'<g transform="translate({pad_l},{pad_t})">',
    ]
    for frac in (0.0, 0.5, 1.0):  # recessive horizontal grid
        gy = plot_h - frac * plot_h
        parts.append(
            f'<line x1="0" y1="{gy:.1f}" x2="{plot_w}" y2="{gy:.1f}" '
            'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="-6" y="{gy + 4:.1f}" text-anchor="end">'
            f"{_fmt(frac * y_hi, 3)}</text>"
        )
    for idx, (label, pts) in enumerate(series[:2]):
        color = colors[idx]
        coords = [(sx(x), sy(y)) for x, y in pts]
        polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        parts.append(
            f'<polyline points="{polyline}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        for (px, py), (x, y) in zip(coords, pts):
            parts.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="{color}" '
                f'stroke="var(--surface-1)" stroke-width="2">'
                f"<title>{_esc(label)}: {x_label}={_fmt(x)}, {y_label}={_fmt(y)}"
                "</title></circle>"
            )
        lx, ly = coords[-1]
        parts.append(
            f'<text x="{lx + 8:.1f}" y="{ly + 4:.1f}">{_esc(label)}</text>'
        )
    parts.append(
        f'<text x="{plot_w / 2:.0f}" y="{plot_h + 20}" text-anchor="middle">'
        f"{_esc(x_label)}</text>"
    )
    parts.append("</g></svg>")
    return "".join(parts)


def _svg_waterfall(spans: list[dict], width: int = 860, row_h: int = 16) -> str:
    """Horizontal span bars offset by start time; depth sets the blue step."""
    if not spans:
        return ""
    t0 = min(s["start"] for s in spans)
    t1 = max(s["start"] + s["seconds"] for s in spans)
    total = max(t1 - t0, 1e-9)
    label_w = 240
    plot_w = width - label_w - 60
    height = len(spans) * row_h + 24
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'role="img" aria-label="stage waterfall">'
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = label_w + frac * plot_w
        parts.append(
            f'<line x1="{gx:.1f}" y1="0" x2="{gx:.1f}" y2="{height - 18}" '
            'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.1f}" y="{height - 4}" text-anchor="middle">'
            f"{_fmt(frac * total, 3)}s</text>"
        )
    for row, span in enumerate(spans):
        y = row * row_h
        x = label_w + (span["start"] - t0) / total * plot_w
        w = max(span["seconds"] / total * plot_w, 1.5)
        depth_color = f"var(--wf-{min(span['depth'], 2)})"
        indent = min(span["depth"], 6) * 10
        name = span["name"]
        parts.append(
            f'<text x="{indent}" y="{y + row_h - 4}">{_esc(name[:34])}</text>'
        )
        parts.append(
            f'<rect x="{x:.1f}" y="{y + 3}" width="{w:.1f}" height="{row_h - 6}" '
            f'rx="2" fill="{depth_color}">'
            f"<title>{_esc(name)}: {span['seconds']:.4f}s "
            f"(starts at +{span['start'] - t0:.4f}s)</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


# --------------------------------------------------------------------- #
# Data gathering
# --------------------------------------------------------------------- #


def _waterfall_spans(records: list[dict], limit: int) -> list[dict]:
    """Closed spans with ``ts`` info, start-ordered, nesting depth resolved."""
    seconds_of: dict = {}
    for rec in records:
        if rec.get("type") == "span_end" and rec.get("seconds") is not None:
            seconds_of[rec.get("span_id")] = float(rec["seconds"])
    parents: dict = {}
    spans = []
    for rec in records:
        if rec.get("type") != "span_start" or rec.get("ts") is None:
            continue
        sid = rec.get("span_id")
        parents[sid] = rec.get("parent_id")
        if sid not in seconds_of:
            continue
        depth, node = 0, rec.get("parent_id")
        while node is not None and depth < 12:
            depth += 1
            node = parents.get(node)
        spans.append(
            {
                "name": rec.get("name", "?"),
                "start": float(rec["ts"]),
                "seconds": seconds_of[sid],
                "depth": depth,
            }
        )
    spans.sort(key=lambda s: s["start"])
    return spans[:limit]


def _latest_progress(records: list[dict]) -> list[dict]:
    """The last ``*.progress`` heartbeat per label, label-sorted."""
    latest: dict[str, dict] = {}
    for rec in records:
        name = rec.get("name", "")
        if rec.get("type") == "event" and name.endswith(PROGRESS_SUFFIX):
            latest[name[: -len(PROGRESS_SUFFIX)]] = rec
    return [latest[label] for label in sorted(latest)]


def _load_bench_records(paths: list[Path]) -> dict[str, dict]:
    records: dict[str, dict] = {}
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for key, record in payload.get("records", {}).items():
            records[key] = record
    return records


def default_bench_paths(run_dir: Path) -> list[Path]:
    """``BENCH_*.json`` dumps next to the run dir, then at the repo root."""
    seen: list[Path] = []
    for base in (run_dir, Path.cwd()):
        for path in sorted(base.glob("BENCH_*.json")):
            if path not in seen:
                seen.append(path)
    return seen


def default_history_path(run_dir: Path) -> Path | None:
    for candidate in (
        run_dir / "history.jsonl",
        Path.cwd() / "benchmarks" / "results" / "history.jsonl",
    ):
        if candidate.exists():
            return candidate
    return None


# --------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------- #


def _section_manifest(report: RunReport) -> str:
    m = report.manifest
    if m is None:
        return (
            f"<p class='meta'>run directory <code>{_esc(report.run_dir.name)}</code>"
            " (no manifest found)</p>"
        )
    rows = [
        ["run id", m.run_id],
        ["command", m.command],
        ["experiments", ", ".join(m.experiments) or "—"],
        ["seed", m.seed if m.seed is not None else "—"],
        ["started", m.started_at],
        [
            "wall clock",
            f"{m.wall_clock_seconds:.2f}s" if m.wall_clock_seconds else "running?",
        ],
        ["python", m.platform.get("python", "?")],
        ["machine", m.platform.get("machine", "?")],
        ["artifacts", ", ".join(m.artifacts) or "—"],
    ]
    return _table(["field", "value"], rows, numeric_from=99)


def _section_progress(records: list[dict]) -> str:
    beats = _latest_progress(records)
    if not beats:
        return ""
    out = ["<h2>Progress</h2>"]
    for beat in beats:
        label = beat["name"][: -len(PROGRESS_SUFFIX)]
        done, total = beat.get("done", 0), beat.get("total")
        pct = min(1.0, done / total) if total else (1.0 if beat.get("final") else 0.0)
        detail = f"{done}/{total}" if total else str(done)
        if beat.get("rate") is not None:
            detail += f" · {_fmt(beat['rate'])}/s"
        if beat.get("eta_seconds") is not None:
            detail += f" · eta {_fmt(beat['eta_seconds'], 3)}s"
        if beat.get("final"):
            detail += " · done"
        out.append(
            f"<p>{_esc(label)} <span class='bar-track'><span class='bar-fill' "
            f"style='width:{pct:.0%}'></span></span> "
            f"<span class='meta'>{_esc(detail)}</span></p>"
        )
    return "".join(out)


def _section_waterfall(records: list[dict], limit: int) -> str:
    spans = _waterfall_spans(records, limit)
    if not spans:
        return ""
    return (
        "<h2>Stage waterfall</h2>"
        f"<p class='meta'>first {len(spans)} closed span(s), bars offset by "
        "start time; indent and shade mark nesting depth</p>"
        + _svg_waterfall(spans)
    )


def _section_stages(report: RunReport) -> str:
    if not report.stage_seconds:
        return ""
    rows = [
        [name, f"{secs:.4f}", report.stage_counts.get(name, 0)]
        for name, secs in sorted(report.stage_seconds.items(), key=lambda kv: -kv[1])
    ]
    return "<h2>Stage timings</h2>" + _table(["span", "seconds", "spans"], rows)


def _section_profile(records: list[dict]) -> str:
    profile = build_profile(records)
    if not profile.frames:
        return ""
    rows = [
        [";".join(f.path), f"{f.self_seconds:.4f}", f"{f.total_seconds:.4f}", f.count]
        for f in profile.hotspots(12)
    ]
    return (
        "<h2>Profile (self-time hotspots)</h2>"
        f"<p class='meta'>{profile.coverage:.1%} of {profile.root_seconds:.4f}s "
        "traced wall-time attributed to spans "
        "(<code>report --profile</code> writes profile.json + folded stacks)</p>"
        + _table(["path", "self s", "total s", "count"], rows)
    )


def _section_experiments(report: RunReport) -> str:
    if not report.experiments:
        return ""
    rows = [
        [
            e.get("experiment"),
            f"{e['elapsed_seconds']:.3f}"
            if isinstance(e.get("elapsed_seconds"), (int, float))
            else "?",
            e.get("n_rows", "?"),
        ]
        for e in report.experiments
    ]
    return "<h2>Experiments</h2>" + _table(["experiment", "seconds", "rows"], rows)


def _section_metrics(run_dir: Path) -> str:
    path = run_dir / "metrics.json"
    if not path.exists():
        return ""
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        return ""
    out = ["<h2>Metrics</h2>"]
    counters = payload.get("counters", {})
    if counters:
        out.append("<h3>counters</h3>")
        out.append(_table(["name", "value"], sorted(counters.items())))
    gauges = payload.get("gauges", {})
    if gauges:
        out.append("<h3>gauges</h3>")
        out.append(_table(["name", "value"], sorted(gauges.items())))
    histograms = payload.get("histograms", {})
    if histograms:
        rows = [
            [name, h.get("count"), _fmt(h.get("mean")), _fmt(h.get("min")),
             _fmt(h.get("max"))]
            for name, h in sorted(histograms.items())
        ]
        out.append("<h3>histograms</h3>")
        out.append(_table(["name", "count", "mean", "min", "max"], rows))
    return "".join(out) if len(out) > 1 else ""


def _section_queue(run_dir: Path) -> str:
    """Distributed-queue panel: per-state counts, worker liveness from
    heartbeat age, and the reclaimed-lease log.  Empty (and absent from
    the page) unless the run directory holds a ``queue.db``."""
    # Imported lazily: the obs layer stays importable without the queue
    # package, and runs without a queue never pay for it.
    from ..queue.sqlite_backend import QUEUE_DB_NAME, queue_snapshot

    snapshot = queue_snapshot(run_dir / QUEUE_DB_NAME)
    if snapshot is None:
        return ""
    now = time.time()
    counts = snapshot["counts"]
    total = sum(counts.values())
    done_frac = counts["done"] / total if total else 0.0
    out = [
        "<h2>Queue</h2>",
        f"<p>drain <span class='bar-track'><span class='bar-fill' "
        f"style='width:{done_frac:.0%}'></span></span> "
        f"<span class='meta'>{counts['done']}/{total} done · "
        f"{counts['pending']} pending · {counts['claimed']} claimed · "
        f"{counts['failed']} failed</span></p>",
    ]
    rows = [
        [exp, states["pending"], states["claimed"], states["done"], states["failed"]]
        for exp, states in sorted(snapshot["by_experiment"].items())
    ]
    if rows:
        out.append(
            _table(["experiment", "pending", "claimed", "done", "failed"], rows)
        )
    if snapshot["workers"]:
        worker_rows = []
        for entry in snapshot["workers"]:
            age = (
                now - entry["last_heartbeat"]
                if entry["last_heartbeat"] is not None
                else None
            )
            if entry["claimed"]:
                expired = (
                    entry["lease_expires"] is not None
                    and entry["lease_expires"] < now
                )
                status = "lease expired" if expired else "active"
            else:
                status = "idle"
            worker_rows.append(
                [
                    entry["worker"],
                    status,
                    entry["active_cell"] or "—",
                    entry["done"],
                    entry["failed"],
                    f"{age:.1f}s ago" if age is not None else "—",
                ]
            )
        out.append("<h3>workers</h3>")
        out.append(
            _table(
                ["worker", "status", "active cell", "done", "failed", "heartbeat"],
                worker_rows,
                numeric_from=3,
            )
        )
    if snapshot["reclaims"]:
        out.append("<h3>reclaimed leases</h3>")
        out.append(
            _table(
                ["age", "cell", "lost by"],
                [
                    [
                        f"{max(now - r['ts'], 0.0):.1f}s ago",
                        f"{r['experiment']}/{r['cell_id']}",
                        r["worker"] or "—",
                    ]
                    for r in snapshot["reclaims"]
                ],
                numeric_from=99,
            )
        )
    return "".join(out)


def _section_payments(report: RunReport, explain_limit: int) -> str:
    audit = report.audit
    winners = [uid for uid in audit.audited_users if uid in audit.rewards]
    if not winners:
        return ""
    rows = []
    for uid in winners:
        reward = audit.rewards[uid]
        rows.append(
            [
                uid,
                reward.mechanism,
                f"{reward.critical_contribution:.6g}",
                f"{reward.critical_pos:.4g}",
                f"{reward.cost:.4g}",
                f"{reward.success_reward:.4g}",
                f"{reward.failure_reward:.4g}",
            ]
        )
    explains = "\n\n".join(audit.explain(uid) for uid in winners[:explain_limit])
    return (
        "<h2>Payment audit</h2>"
        + _table(
            ["user", "mechanism", "critical q̄", "critical PoS", "cost",
             "success", "failure"],
            rows,
        )
        + f"<details><summary>why each of the first {min(len(winners), explain_limit)}"
        f" winner(s) was paid (Algorithms 3/5)</summary><pre>{_esc(explains)}</pre>"
        "</details>"
    )


def _section_bench(bench_records: dict[str, dict]) -> str:
    if not bench_records:
        return ""
    out = ["<h2>Benchmark scaling curves</h2>"]
    for key in sorted(bench_records):
        record = bench_records[key]
        sweep = record.get("sweep")
        if isinstance(sweep, list) and sweep:
            xs = [p for p in sweep if "n_users" in p]
            vec = [
                (p["n_users"], p["vectorized_seconds"])
                for p in xs
                if "vectorized_seconds" in p
            ]
            ref = [
                (p["n_users"], p["reference_seconds"])
                for p in xs
                if "reference_seconds" in p
            ]
            series = [("vectorized", vec)] if vec else []
            if ref:
                series.append(("reference", ref))
            out.append(f"<h3>{_esc(key)}</h3>")
            if series:
                out.append(_svg_line_chart(series, "n_users", "seconds"))
            split = [
                p
                for p in xs
                if "vectorized_fit_seconds" in p
                and "vectorized_generate_seconds" in p
            ]
            if split:
                # Workload-engine sweeps split end-to-end time into the
                # fit and generate stages.
                out.append(
                    _svg_line_chart(
                        [
                            (
                                "fit",
                                [
                                    (p["n_users"], p["vectorized_fit_seconds"])
                                    for p in split
                                ],
                            ),
                            (
                                "generate",
                                [
                                    (p["n_users"], p["vectorized_generate_seconds"])
                                    for p in split
                                ],
                            ),
                        ],
                        "n_users",
                        "stage seconds",
                    )
                )
                headers = [
                    "n_users", "fit s", "generate s", "vectorized s",
                    "reference s", "speedup",
                ]
                rows = [
                    [
                        p.get("n_users"),
                        _fmt(p.get("vectorized_fit_seconds", "—")),
                        _fmt(p.get("vectorized_generate_seconds", "—")),
                        _fmt(p.get("vectorized_seconds", "—")),
                        _fmt(p.get("reference_seconds", "—")),
                        _fmt(p.get("speedup", "—")),
                    ]
                    for p in xs
                ]
            else:
                headers = ["n_users", "vectorized s", "reference s", "speedup"]
                rows = [
                    [
                        p.get("n_users"),
                        _fmt(p.get("vectorized_seconds", "—")),
                        _fmt(p.get("reference_seconds", "—")),
                        _fmt(p.get("speedup", "—")),
                    ]
                    for p in xs
                ]
            out.append(_table(headers, rows))
        else:
            rows = [
                [field, _fmt(value)]
                for field, value in sorted(record.items())
                if isinstance(value, (int, float, str))
            ]
            out.append(f"<h3>{_esc(key)}</h3>")
            out.append(_table(["field", "value"], rows))
    return "".join(out)


def _section_history(history_path: Path | None, tolerance: float = 0.8) -> str:
    if history_path is None or not history_path.exists():
        return ""
    try:
        entries = read_events(history_path, tolerate_partial_tail=True)
    except ValueError:
        return ""
    series: dict[str, list[tuple[int, float, str]]] = {}
    for entry in entries:
        key, record = entry.get("key"), entry.get("record", {})
        if not key or not isinstance(record, dict):
            continue
        speedup = record.get("speedup")
        if isinstance(speedup, (int, float)):
            series.setdefault(key, []).append(
                (len(series.get(key, [])), float(speedup), entry.get("git_sha") or "?")
            )
    if not series:
        return ""
    out = [
        "<h2>Bench history (speedup over time)</h2>",
        f"<p class='meta'>{history_path.name}: each point is one appended bench "
        "record; latest flagged when below "
        f"{tolerance:.0%} of the best historical speedup</p>",
    ]
    for key in sorted(series):
        points = series[key]
        best = max(speed for _, speed, _ in points)
        latest = points[-1][1]
        flag = (
            f" <span class='flag'>⚠ {latest:.2f}x is below {tolerance:.0%} of "
            f"best {best:.2f}x</span>"
            if latest < tolerance * best
            else ""
        )
        out.append(f"<h3>{_esc(key)}{flag}</h3>")
        out.append(
            _svg_line_chart(
                [("speedup", [(i, speed) for i, speed, _ in points])],
                "record #",
                "speedup",
                width=380,
                height=140,
            )
        )
        out.append(
            _table(
                ["record #", "speedup", "git sha"],
                [[i, f"{speed:.2f}", sha[:12]] for i, speed, sha in points],
            )
        )
    return "".join(out)


# --------------------------------------------------------------------- #
# Assembly, atomic writes, watch loop
# --------------------------------------------------------------------- #


def render_dashboard(
    run_dir: str | Path,
    *,
    deterministic: bool = False,
    bench_paths: list[Path] | None = None,
    history_path: Path | None = None,
    waterfall_limit: int = 80,
    explain_limit: int = 8,
) -> str:
    """Render one run directory into a self-contained HTML document.

    Args:
        run_dir: Run directory (manifest + events.jsonl + metrics.json).
        deterministic: Omit the generated-at stamp (golden-file tests).
        bench_paths: ``BENCH_*.json`` dumps to chart (default:
            :func:`default_bench_paths`).
        history_path: Bench history ledger (default:
            :func:`default_history_path`).
        waterfall_limit: Maximum spans drawn in the waterfall.
        explain_limit: Payment explanations rendered in full.
    """
    run_dir = Path(run_dir)
    events_file = "events.jsonl"
    if (run_dir / MANIFEST_NAME).exists():
        events_file = RunManifest.load(run_dir).events_file or events_file
    events_path = run_dir / events_file
    records = (
        read_events(events_path, tolerate_partial_tail=True)
        if events_path.exists()
        else []
    )
    report = build_report(run_dir, records=records)
    if bench_paths is None:
        bench_paths = default_bench_paths(run_dir)
    if history_path is None:
        history_path = default_history_path(run_dir)

    title = report.manifest.run_id if report.manifest else run_dir.name
    stamp = (
        ""
        if deterministic
        else "<p class='meta'>generated "
        + time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        + f" · {len(records)} event(s)</p>"
    )
    body = "".join(
        [
            f"<h1>run {_esc(title)}</h1>",
            stamp,
            _section_manifest(report),
            _section_progress(records),
            _section_queue(run_dir),
            _section_waterfall(records, waterfall_limit),
            _section_stages(report),
            _section_profile(records),
            _section_experiments(report),
            _section_metrics(run_dir),
            _section_payments(report, explain_limit),
            _section_bench(_load_bench_records(bench_paths)),
            _section_history(history_path),
        ]
    )
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>run {_esc(title)}</title>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        f"<style>{_CSS}</style></head><body>{body}</body></html>\n"
    )


def write_dashboard(run_dir: str | Path, out_path: str | Path | None = None, **kw) -> Path:
    """Render and write ``report.html`` **atomically** (temp + ``os.replace``).

    Readers — a browser auto-refreshing during ``--watch`` — always see
    either the previous complete document or the new complete document,
    never a partial write.
    """
    run_dir = Path(run_dir)
    out_path = Path(out_path) if out_path is not None else run_dir / REPORT_NAME
    html_text = render_dashboard(run_dir, **kw)
    tmp = out_path.with_name(f".{out_path.name}.tmp-{os.getpid()}")
    tmp.write_text(html_text, encoding="utf-8")
    os.replace(tmp, out_path)
    return out_path


def watch_dashboard(
    run_dir: str | Path,
    out_path: str | Path | None = None,
    interval: float = 2.0,
    max_renders: int | None = None,
    on_render=None,
    **kw,
) -> int:
    """Re-render the dashboard whenever the event stream grows.

    Polls ``events.jsonl``'s (size, mtime) every ``interval`` seconds and
    re-renders — atomically — when it changed (the first render is
    unconditional).  Runs until interrupted, or until ``max_renders``
    renders happened (used by tests and bounded CLI watches).

    Returns:
        Number of renders performed.
    """
    run_dir = Path(run_dir)
    events_file = "events.jsonl"
    if (run_dir / MANIFEST_NAME).exists():
        events_file = RunManifest.load(run_dir).events_file or events_file
    events_path = run_dir / events_file

    renders = 0
    last_sig = None
    while max_renders is None or renders < max_renders:
        try:
            stat = events_path.stat()
            sig = (stat.st_size, stat.st_mtime_ns)
        except FileNotFoundError:
            sig = None
        if renders == 0 or sig != last_sig:
            path = write_dashboard(run_dir, out_path, **kw)
            renders += 1
            last_sig = sig
            if on_render is not None:
                on_render(path, renders)
        if max_renders is not None and renders >= max_renders:
            break
        time.sleep(interval)
    return renders
