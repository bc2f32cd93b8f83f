"""Run every workload ten times and tabulate each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py

Round *r* uses seed *r* and runs the workloads of ``BENCHMARK.json`` in
the listed order on even rounds and in reverse on odd ones, each in a fresh
process for ``run_seconds``.  The table gives, per workload and end-to-end
metric, the median, the quartiles (as ``statistics.quantiles(values, n=4)``
computes them) and the quartile distance as a share of the median, next to
the metric's bound.  A ``wall sweep`` row gives the same for the unscaled
wall time of a sweep, next to the rescaled ``sweep_s``.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
WALL = re.compile(r"^sweep_s = .*; wall ([0-9.]+) s\)$", re.MULTILINE)


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        check=True, capture_output=True, text=True, cwd=HERE.parent,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_sweep_s"] = float(WALL.search(proc.stdout).group(1))
    return result


def row(name: str, metric: str, values: list[float], bound: object) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("nan")
    return (f"| {name} | {metric} | {median:.4g} | {q1:.4g} | {q3:.4g} | "
            f"{spread:.3f} | {bound} |")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(RUNS):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            result = run_once(name, index + 1)
            results[name].append(result)
            print(f"# run {index + 1} {name}: failed {result['failed']} of "
                  f"{result['attempted']}, correct {result['correct']}", file=sys.stderr)

    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[name]]
            print(row(name, f"{metric['name']} ({metric['unit']})", values, metric["bound"]))
        print(row(name, "wall sweep (s)", [r["wall_sweep_s"] for r in results[name]], "—"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
