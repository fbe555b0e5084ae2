"""Append-only bench history ledger: ``benchmarks/results/history.jsonl``.

Every full-size perf run (``pytest -m perf``) appends one JSON line per
benchmark record, stamped with provenance:

.. code-block:: json

    {"key": "batch_pricing_multi_n500", "git_sha": "b36f945…",
     "recorded_at": "2026-08-07T18:00:00Z",
     "platform": {"python": "...", "machine": "..."},
     "record": {"benchmark": "batch_pricing_multi", "speedup": 7.3, "...": 0}}

The ledger answers "how has this benchmark moved across commits?" — the
dashboard (``repro report --html``) plots each key's speedup trajectory,
and :mod:`benchmarks.compare_bench` (``--history``) gates a fresh dump
against the **best historical speedup per key**, not just the previous
run, so a slow regression spread over several PRs still trips the gate.

Keys reuse the writer conventions of the ``BENCH_*.json`` dumps
(:func:`benchmarks.bench_pricing.write_records` keys records
``<benchmark>_n<n_users>``; sweep records expand to ``<key>@n=<n>`` inside
``compare_bench``), so one key namespace spans dumps, history, and the
comparison tool.

The file is append-only JSONL with the same torn-final-line tolerance as
every other event stream in this repo (see :mod:`repro.obs.events`):
:func:`load_history` drops a malformed last line and raises on malformed
earlier ones.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

try:
    from repro.obs import platform_info
except ImportError:  # compare_bench CLI without PYTHONPATH=src
    def platform_info() -> dict:
        import platform as _platform

        return {
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        }

__all__ = [
    "HISTORY_PATH",
    "append_history",
    "best_speedups",
    "git_sha",
    "load_history",
]

HISTORY_PATH = Path(__file__).parent / "results" / "history.jsonl"


def git_sha(repo_dir: str | Path | None = None) -> str | None:
    """The current commit SHA, or ``None`` outside a git checkout.

    A tree with uncommitted changes to tracked files is stamped
    ``<sha>-dirty``: what it measured is not that commit's code.
    """
    cwd = repo_dir if repo_dir is not None else Path(__file__).parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True, text=True, timeout=10
        )
        sha = head.stdout.strip()
        if head.returncode != 0 or not sha:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return f"{sha}-dirty" if status.stdout.strip() else sha


def append_history(
    records: dict[str, dict],
    path: str | Path = HISTORY_PATH,
    *,
    sha: str | None = None,
    recorded_at: str | None = None,
) -> int:
    """Append one ledger line per benchmark record; returns lines written.

    Args:
        records: ``{key: record}`` as passed to the ``BENCH_*.json``
            writers (records may carry ``sweep`` lists; they are stored
            verbatim — expansion happens at read time).
        path: Ledger file (created, with parents, on first use).
        sha: Commit override (default: :func:`git_sha`).
        recorded_at: Timestamp override (default: current UTC time).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sha = sha if sha is not None else git_sha()
    stamp = (
        recorded_at
        if recorded_at is not None
        else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    platform = platform_info()
    with path.open("a") as fh:
        for key in sorted(records):
            fh.write(
                json.dumps(
                    {
                        "key": key,
                        "git_sha": sha,
                        "recorded_at": stamp,
                        "platform": platform,
                        "record": records[key],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        fh.flush()
    return len(records)


def load_history(path: str | Path = HISTORY_PATH) -> list[dict]:
    """Parse the ledger, tolerating a torn final line (writer crash)."""
    path = Path(path)
    if not path.exists():
        return []
    entries: list[dict] = []
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            if lineno == len(lines):
                break  # torn tail: the writer died mid-append
            raise ValueError(f"{path}:{lineno}: malformed history line") from None
    return entries


def best_speedups(entries: list[dict]) -> dict[str, dict]:
    """Best historical record per (sweep-expanded) key, by ``speedup``.

    Sweep records are expanded exactly as :func:`benchmarks.compare_bench.
    expand_sweeps` does, so the result plugs directly into
    :func:`benchmarks.compare_bench.compare` as the baseline side.  Keys
    whose records never carry a ``speedup`` are dropped (they have nothing
    to regress against).
    """
    try:
        from benchmarks.compare_bench import expand_sweeps
    except ImportError:  # run as a loose script from benchmarks/
        from compare_bench import expand_sweeps

    best: dict[str, dict] = {}
    for entry in entries:
        key, record = entry.get("key"), entry.get("record")
        if not isinstance(key, str) or not isinstance(record, dict):
            continue
        for flat_key, flat in expand_sweeps({key: record}).items():
            speedup = flat.get("speedup")
            if not isinstance(speedup, (int, float)):
                continue
            incumbent = best.get(flat_key)
            if incumbent is None or speedup > incumbent["speedup"]:
                best[flat_key] = flat
    return best
