"""Tests for benchmarks/compare_bench.py (speedup regression diffing)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.compare_bench import (
    Comparison,
    compare,
    expand_sweeps,
    format_comparison,
    load_records,
    main,
)


REPO_ROOT = Path(__file__).resolve().parent.parent


def dump(records: dict) -> dict:
    return {"records": records}


OLD = {
    "multi_task_reward_determination_n500": {"speedup": 8.6},
    "single_task_critical_pricing_n100": {"speedup": 3.1},
    "dropped_bench_n10": {"speedup": 2.0},
}
NEW_OK = {
    "multi_task_reward_determination_n500": {"speedup": 8.0},  # 93% of old
    "single_task_critical_pricing_n100": {"speedup": 3.3},  # improved
    "added_bench_n20": {"speedup": 4.0},
}
NEW_BAD = {
    "multi_task_reward_determination_n500": {"speedup": 4.0},  # 47% of old
    "single_task_critical_pricing_n100": {"speedup": 3.1},
}


class TestCompare:
    def test_within_tolerance_passes(self):
        comparisons, only_old, only_new = compare(OLD, NEW_OK, tolerance=0.8)
        assert not any(c.regressed for c in comparisons)
        assert only_old == ["dropped_bench_n10"]
        assert only_new == ["added_bench_n20"]

    def test_regression_flagged(self):
        comparisons, _, _ = compare(OLD, NEW_BAD, tolerance=0.8)
        flagged = {c.key: c.regressed for c in comparisons}
        assert flagged["multi_task_reward_determination_n500"] is True
        assert flagged["single_task_critical_pricing_n100"] is False

    def test_exact_tolerance_boundary_is_not_a_regression(self):
        c = Comparison(key="k", old_speedup=10.0, new_speedup=8.0, tolerance=0.8)
        assert not c.regressed
        assert c.ratio == pytest.approx(0.8)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare(OLD, NEW_OK, tolerance=0.0)

    def test_format_mentions_verdicts(self):
        comparisons, only_old, only_new = compare(OLD, NEW_BAD)
        text = format_comparison(comparisons, only_old, only_new)
        assert "REGRESSED" in text and "ok" in text
        assert "only in OLD" in text


SWEEP_OLD = {
    "kernel_sweep_multi": {
        "benchmark": "kernel_sweep_multi",
        "sweep": [
            {"n_users": 1000, "speedup": 4.0},
            {"n_users": 20000, "speedup": 12.0},
            {"n_users": 100000, "vectorized_seconds": 2.0},  # no reference run
        ],
    },
    "kernel_headline_auction": {"n_users": 100000, "auction_seconds": 420.0},
}


class TestSweepExpansion:
    def test_sweep_points_become_per_size_keys(self):
        expanded = expand_sweeps(SWEEP_OLD)
        assert expanded["kernel_sweep_multi@n=1000"]["speedup"] == 4.0
        assert expanded["kernel_sweep_multi@n=20000"]["speedup"] == 12.0
        # Vectorized-only points carry no speedup and are dropped.
        assert "kernel_sweep_multi@n=100000" not in expanded
        # Non-sweep records pass through untouched.
        assert expanded["kernel_headline_auction"] is SWEEP_OLD["kernel_headline_auction"]

    def test_regression_is_flagged_at_the_size_it_happens(self):
        new = json.loads(json.dumps(SWEEP_OLD))
        new["kernel_sweep_multi"]["sweep"][1]["speedup"] = 5.0  # 42% of old @20k
        comparisons, _, _ = compare(SWEEP_OLD, new, tolerance=0.8)
        flagged = {c.key: c.regressed for c in comparisons}
        assert flagged["kernel_sweep_multi@n=20000"] is True
        assert flagged["kernel_sweep_multi@n=1000"] is False

    def test_records_without_speedup_never_fail_the_comparison(self):
        comparisons, only_old, only_new = compare(SWEEP_OLD, SWEEP_OLD)
        assert {c.key for c in comparisons} == {
            "kernel_sweep_multi@n=1000",
            "kernel_sweep_multi@n=20000",
        }
        assert not any(c.regressed for c in comparisons)
        assert only_old == only_new == []

    def test_dropped_sweep_size_is_reported_not_failed(self):
        new = json.loads(json.dumps(SWEEP_OLD))
        del new["kernel_sweep_multi"]["sweep"][0]
        comparisons, only_old, only_new = compare(SWEEP_OLD, new)
        assert only_old == ["kernel_sweep_multi@n=1000"]
        assert only_new == []
        assert not any(c.regressed for c in comparisons)

    def test_checked_in_kernel_dump_compares_clean_against_itself(self):
        from benchmarks.bench_scalability import BENCH_KERNEL_SWEEP_PATH

        records = load_records(BENCH_KERNEL_SWEEP_PATH)
        comparisons, _, _ = compare(records, records)
        assert comparisons and not any(c.regressed for c in comparisons)

    def test_checked_in_workload_dump_compares_clean_against_itself(self):
        from benchmarks.bench_workload import BENCH_WORKLOAD_PATH

        records = load_records(BENCH_WORKLOAD_PATH)
        comparisons, _, _ = compare(records, records)
        assert comparisons and not any(c.regressed for c in comparisons)
        # The n-sweep expands into per-size keys so a regression at one
        # fleet size is flagged at that size.
        assert any(c.key.startswith("workload_sweep@n=") for c in comparisons)

    def test_workload_sweep_regression_flagged_at_its_size(self):
        from benchmarks.bench_workload import BENCH_WORKLOAD_PATH

        records = load_records(BENCH_WORKLOAD_PATH)
        bad = json.loads(json.dumps(records))
        point = bad["workload_sweep"]["sweep"][-1]
        point["speedup"] = point["speedup"] * 0.1
        size_key = f"workload_sweep@n={point['n_users']}"
        comparisons, _, _ = compare(records, bad, tolerance=0.8)
        flagged = {c.key: c.regressed for c in comparisons}
        assert flagged[size_key] is True


class TestLoadAndMain:
    def test_load_records_rejects_non_dump(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_records": 1}))
        with pytest.raises(ValueError, match="records"):
            load_records(path)

    def _write(self, tmp_path, name, records):
        path = tmp_path / name
        path.write_text(json.dumps(dump(records)))
        return str(path)

    def test_main_exit_zero_when_ok(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", OLD)
        new = self._write(tmp_path, "new.json", NEW_OK)
        assert main([old, new]) == 0
        assert "ok" in capsys.readouterr().out

    def test_main_exit_one_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", OLD)
        new = self._write(tmp_path, "new.json", NEW_BAD)
        assert main([old, new]) == 1
        assert "regression(s)" in capsys.readouterr().out

    def test_main_tolerance_flag(self, tmp_path):
        old = self._write(tmp_path, "old.json", OLD)
        new = self._write(tmp_path, "new.json", NEW_BAD)
        # 4.0 / 8.6 ≈ 0.465: passes with a loose enough tolerance.
        assert main([old, new, "--tolerance", "0.4"]) == 0

    def test_checked_in_dump_compares_clean_against_itself(self):
        from benchmarks.bench_pricing import BENCH_PATH

        records = load_records(BENCH_PATH)
        comparisons, _, _ = compare(records, records)
        assert comparisons and not any(c.regressed for c in comparisons)


class TestHistoryLedger:
    """benchmarks/history.py: append-only ledger + best-in-history baseline."""

    def _entry(self, key, record, sha="abc123"):
        return {
            "key": key,
            "git_sha": sha,
            "recorded_at": "2026-01-01T00:00:00Z",
            "platform": {"python": "x"},
            "record": record,
        }

    def test_git_sha_marks_a_dirty_tree(self, tmp_path):
        import subprocess

        from benchmarks.history import git_sha

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "code.py").write_text("x = 1\n")
        git("add", "code.py")
        git("commit", "-q", "--no-gpg-sign", "-m", "init")
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True
        ).stdout.strip()
        assert git_sha(tmp_path) == head
        (tmp_path / "notes.txt").write_text("untracked\n")
        assert git_sha(tmp_path) == head
        (tmp_path / "code.py").write_text("x = 2\n")
        assert git_sha(tmp_path) == f"{head}-dirty"

    def test_append_and_load_roundtrip(self, tmp_path):
        from benchmarks.history import append_history, load_history

        ledger = tmp_path / "history.jsonl"
        n = append_history(
            {"bench_n10": {"benchmark": "bench", "n_users": 10, "speedup": 3.0}},
            ledger,
            sha="deadbeef",
            recorded_at="2026-01-01T00:00:00Z",
        )
        assert n == 1
        (entry,) = load_history(ledger)
        assert entry["key"] == "bench_n10"
        assert entry["git_sha"] == "deadbeef"
        assert entry["recorded_at"] == "2026-01-01T00:00:00Z"
        assert entry["record"]["speedup"] == 3.0
        assert "python" in entry["platform"]

    def test_load_missing_ledger_is_empty(self, tmp_path):
        from benchmarks.history import load_history

        assert load_history(tmp_path / "nope.jsonl") == []

    def test_load_tolerates_torn_final_line(self, tmp_path):
        from benchmarks.history import load_history

        ledger = tmp_path / "history.jsonl"
        ledger.write_text(
            json.dumps(self._entry("a_n1", {"speedup": 2.0})) + "\n" + '{"torn'
        )
        (entry,) = load_history(ledger)
        assert entry["key"] == "a_n1"

    def test_load_raises_on_torn_middle_line(self, tmp_path):
        from benchmarks.history import load_history

        ledger = tmp_path / "history.jsonl"
        ledger.write_text(
            "not json\n" + json.dumps(self._entry("a_n1", {"speedup": 2.0})) + "\n"
        )
        with pytest.raises(ValueError, match="malformed"):
            load_history(ledger)

    def test_best_speedups_keeps_max_per_key(self):
        from benchmarks.history import best_speedups

        entries = [
            self._entry("a_n1", {"speedup": 2.0}),
            self._entry("a_n1", {"speedup": 5.0}),
            self._entry("a_n1", {"speedup": 3.0}),
            self._entry("no_speedup", {"seconds": 1.0}),
        ]
        best = best_speedups(entries)
        assert best == {"a_n1": {"speedup": 5.0}}

    def test_best_speedups_expands_sweeps(self):
        from benchmarks.history import best_speedups

        entries = [
            self._entry(
                "kern",
                {"sweep": [{"n_users": 10, "speedup": 2.0}, {"n_users": 20, "speedup": 4.0}]},
            ),
            self._entry(
                "kern",
                {"sweep": [{"n_users": 10, "speedup": 3.0}, {"n_users": 20, "speedup": 1.0}]},
            ),
        ]
        best = best_speedups(entries)
        assert best["kern@n=10"]["speedup"] == 3.0
        assert best["kern@n=20"]["speedup"] == 4.0

    def test_checked_in_ledger_has_records(self):
        from benchmarks.history import HISTORY_PATH, best_speedups, load_history

        entries = load_history(HISTORY_PATH)
        assert entries, "benchmarks/results/history.jsonl must ship with >= 1 record"
        assert best_speedups(entries)


class TestHistoryMode:
    """``compare_bench --history``: candidate vs best-in-history baseline."""

    def _ledger(self, tmp_path, speedups):
        from benchmarks.history import append_history

        ledger = tmp_path / "history.jsonl"
        for i, speedup in enumerate(speedups):
            append_history(
                {"bench_n10": {"benchmark": "bench", "n_users": 10, "speedup": speedup}},
                ledger,
                sha=f"sha{i}",
                recorded_at="2026-01-01T00:00:00Z",
            )
        return ledger

    def _dump(self, tmp_path, speedup):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(dump({"bench_n10": {"speedup": speedup}})))
        return str(path)

    def test_ok_against_best_in_history(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path, [2.0, 5.0, 3.0])
        candidate = self._dump(tmp_path, 4.5)  # 90% of best (5.0): within 0.8
        assert main([candidate, "--history", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "best-in-history" in out

    def test_regression_vs_best_exits_nonzero(self, tmp_path, capsys):
        # Latest ledger entry (3.0) would pass, but the BEST (5.0) is the
        # baseline: 3.5 < 0.8 * 5.0 must fail.
        ledger = self._ledger(tmp_path, [2.0, 5.0, 3.0])
        candidate = self._dump(tmp_path, 3.5)
        assert main([candidate, "--history", str(ledger)]) == 1
        assert "regression(s)" in capsys.readouterr().out

    def _w_sweep(self, s_small, s_big):
        return {
            "benchmark": "pricing_w_sweep",
            "n_users": 100,
            "method": "threshold",
            "sweep": [
                {"n_users": 10, "n_winners": 5, "speedup": s_small},
                {"n_users": 100, "n_winners": 50, "speedup": s_big},
            ],
        }

    def test_history_gate_covers_pricing_w_sweep(self, tmp_path, capsys):
        """The pricing W-sweep expands into per-size keys under --history,
        so a regression at one winner count trips the gate even when the
        other sizes hold."""
        from benchmarks.history import append_history

        ledger = tmp_path / "history.jsonl"
        append_history(
            {"pricing_w_sweep_n100": self._w_sweep(2.0, 6.0)},
            ledger,
            sha="sha0",
            recorded_at="2026-01-01T00:00:00Z",
        )
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(dump({"pricing_w_sweep_n100": self._w_sweep(1.9, 5.5)})))
        assert main([str(ok), "--history", str(ledger)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dump({"pricing_w_sweep_n100": self._w_sweep(2.0, 3.0)})))
        assert main([str(bad), "--history", str(ledger)]) == 1
        assert "pricing_w_sweep_n100@n=100" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))
    )
    def test_checked_in_dump_passes_history_gate(self, name):
        """Every committed dump holds at least 0.8x the best speedup the
        checked-in ledger has for each of its keys."""
        assert main([str(REPO_ROOT / name), "--history"]) == 0

    def test_history_rejects_two_dumps(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path, [2.0])
        candidate = self._dump(tmp_path, 2.0)
        with pytest.raises(SystemExit):
            main([candidate, candidate, "--history", str(ledger)])

    def test_two_dumps_required_without_history(self, tmp_path):
        candidate = self._dump(tmp_path, 2.0)
        with pytest.raises(SystemExit):
            main([candidate])
