"""Run one workload once per seed and summarise each metric's spread.

Run from the repository root::

    python3 e2ebench/spread.py --workload headline --seeds 1-10

Each run is a fresh, untraced ``e2ebench/run.py`` process measuring for
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric the
summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, plus the share of failed operations over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    seconds = str(json.loads(BENCHMARK.read_text())["run_seconds"])

    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    print(f"failed share: {failed}/{attempted}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{args.workload} {name}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
