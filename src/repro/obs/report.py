"""Reconstruct a run from its manifest + JSONL event stream alone.

``python -m repro report <run-dir>`` calls :func:`build_report` then
:func:`format_report`.  Everything is recomputed from the on-disk records —
no Python objects from the original run survive — which is the point: the
observability layer must be sufficient to answer "what did this run do,
and why" after the process is gone.

Reconstructed views:

* **per-stage timings** — wall-clock totals per span name, aggregated over
  every ``span_start``/``span_end`` pair;
* **reuse fractions** — merged ``mechanism.perf`` counter events reduced
  to the three headline ratios (greedy prefix reuse, FPTAS DP-cell reuse,
  ``wins(q)`` cache-hit rate);
* **experiment summary** — per-experiment elapsed seconds and row counts
  from ``experiment.end`` events;
* **audit trail** — :class:`repro.obs.audit.AuditTrail` with per-winner
  "why user *i* won and was paid *r_i*" explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .audit import EVENT_MECHANISM_PERF, AuditTrail
from .events import read_events
from .manifest import MANIFEST_NAME, RunManifest

__all__ = ["RunReport", "build_report", "format_report"]

#: PerfCounters pairs that define the reuse-fraction headlines:
#: name -> (work done, work skipped).
_REUSE_PAIRS = {
    "greedy_prefix_reuse": ("greedy_iterations", "greedy_prefix_iterations_reused"),
    "fptas_dp_cell_reuse": ("fptas_dp_cells", "fptas_dp_cells_reused"),
    "wins_cache_hit_rate": ("wins_evaluations", "wins_cache_hits"),
}


@dataclass
class RunReport:
    """Everything reconstructed from one run directory."""

    run_dir: Path
    manifest: RunManifest | None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    perf_totals: dict[str, float] = field(default_factory=dict)
    perf_labels: dict[str, list[str]] = field(default_factory=dict)
    reuse_fractions: dict[str, float] = field(default_factory=dict)
    experiments: list[dict] = field(default_factory=list)
    audit: AuditTrail = field(default_factory=AuditTrail)
    n_events: int = 0

    def to_dict(self) -> dict:
        return {
            "run_dir": str(self.run_dir),
            "manifest": self.manifest.to_dict() if self.manifest else None,
            "stage_seconds": self.stage_seconds,
            "stage_counts": self.stage_counts,
            "perf_totals": self.perf_totals,
            "perf_labels": self.perf_labels,
            "reuse_fractions": self.reuse_fractions,
            "experiments": self.experiments,
            "audited_users": self.audit.audited_users,
            "n_events": self.n_events,
        }


def build_report(
    run_dir: str | Path,
    records: list[dict] | None = None,
    tolerant: bool = False,
) -> RunReport:
    """Parse a run directory's manifest + events into a :class:`RunReport`.

    Args:
        run_dir: The run directory.
        records: Pre-parsed event records (skips reading the stream).
        tolerant: Read the stream with ``tolerate_partial_tail=True`` —
            the live-dashboard mode, where the writer may still be
            appending (see :mod:`repro.obs.events` for the contract).
    """
    run_dir = Path(run_dir)
    manifest: RunManifest | None = None
    if (run_dir / MANIFEST_NAME).exists():
        manifest = RunManifest.load(run_dir)

    if records is None:
        events_file = (manifest.events_file if manifest else None) or "events.jsonl"
        events_path = run_dir / events_file
        records = (
            read_events(events_path, tolerate_partial_tail=tolerant)
            if events_path.exists()
            else []
        )

    report = RunReport(run_dir=run_dir, manifest=manifest, n_events=len(records))
    perf: dict[str, float] = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "span_end" and rec.get("seconds") is not None:
            name = rec["name"]
            report.stage_seconds[name] = report.stage_seconds.get(name, 0.0) + rec["seconds"]
            report.stage_counts[name] = report.stage_counts.get(name, 0) + 1
        elif kind == "event" and rec.get("name") == EVENT_MECHANISM_PERF:
            # Counters sum and labels (older runs name their kernel)
            # collect distinct values; any other value, such as the
            # stage-timer dict of older runs, is skipped, because stage
            # time comes from spans.
            for key, value in rec.items():
                if key in ("type", "name", "span_id"):
                    continue
                if isinstance(value, (int, float)):
                    perf[key] = perf.get(key, 0.0) + value
                elif isinstance(value, str):
                    seen = report.perf_labels.setdefault(key, [])
                    if value not in seen:
                        seen.append(value)
        elif kind == "event" and rec.get("name") == "experiment.end":
            report.experiments.append(
                {
                    "experiment": rec.get("experiment"),
                    "elapsed_seconds": rec.get("elapsed_seconds"),
                    "n_rows": rec.get("n_rows"),
                }
            )
    report.perf_totals = perf
    for label, (done_key, skipped_key) in _REUSE_PAIRS.items():
        done = perf.get(done_key, 0.0)
        skipped = perf.get(skipped_key, 0.0)
        if done + skipped > 0:
            report.reuse_fractions[label] = skipped / (done + skipped)
    report.audit = AuditTrail.from_events(records)
    return report


def format_report(report: RunReport, explain_limit: int = 8) -> str:
    """Render the reconstructed run as a human-readable text report."""
    lines: list[str] = []
    m = report.manifest
    if m is not None:
        lines.append(f"run {m.run_id} — command '{m.command}', seed {m.seed}")
        lines.append(
            f"  started {m.started_at}, wall clock "
            + (f"{m.wall_clock_seconds:.2f}s" if m.wall_clock_seconds else "unknown")
            + f", python {m.platform.get('python', '?')} on {m.platform.get('machine', '?')}"
        )
        if m.experiments:
            lines.append(f"  experiments: {', '.join(m.experiments)}")
        if m.artifacts:
            lines.append(f"  artifacts: {', '.join(m.artifacts)}")
    else:
        lines.append(f"run directory {report.run_dir} (no manifest found)")
    lines.append(f"  events parsed: {report.n_events}")

    if report.experiments:
        lines.append("\nexperiments:")
        for entry in report.experiments:
            elapsed = entry.get("elapsed_seconds")
            shown = f"{elapsed:.2f}s" if isinstance(elapsed, (int, float)) else "?"
            lines.append(
                f"  {entry['experiment']:<20} {shown:>9}   rows={entry.get('n_rows', '?')}"
            )

    if report.stage_seconds:
        lines.append("\nstage timings (from spans):")
        for name, seconds in sorted(
            report.stage_seconds.items(), key=lambda kv: -kv[1]
        ):
            count = report.stage_counts.get(name, 0)
            lines.append(f"  {name:<28} {seconds:>10.4f}s  over {count} span(s)")

    if report.perf_labels:
        lines.append("\nperf labels (from mechanism.perf events):")
        for key, values in sorted(report.perf_labels.items()):
            lines.append(f"  {key:<28} {', '.join(values)}")

    if report.reuse_fractions:
        lines.append("\nreuse fractions (from merged perf counters):")
        for label, fraction in sorted(report.reuse_fractions.items()):
            lines.append(f"  {label:<28} {fraction:>9.1%}")

    winners = [uid for uid in report.audit.audited_users if uid in report.audit.rewards]
    if winners:
        lines.append(
            f"\npayment explanations ({min(len(winners), explain_limit)} of "
            f"{len(winners)} audited winners):"
        )
        for uid in winners[:explain_limit]:
            lines.append(report.audit.explain(uid))
    elif report.audit.selections:
        lines.append(
            f"\naudit: {len(report.audit.selections)} greedy selection decision(s) "
            "recorded (no priced winners — rewards were skipped or not traced)."
        )
    else:
        lines.append(
            "\naudit: no per-decision events (rerun with --trace for the full trail)."
        )
    return "\n".join(lines)
