"""Self-tests of the benchmark, on minimum-size workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import Fig13Cold, References, ReplaySweep, ServeDrift  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_workloads(tmp_path: Path):
    refs = References(tmp_path / "refs")
    return [
        Fig13Cold(1, refs, tmp_path, programs=("deepsjeng",)),
        ReplaySweep(1, refs, tmp_path, paper=("deepsjeng",)),
        ServeDrift(1, refs, tmp_path, requests=8),
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_minimum_run_emits_every_metric_with_its_unit(tmp_path, trace):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for workload in small_workloads(tmp_path):
        with HostSpeed() as speed:
            result = run.measure(workload, seconds=0, trace=trace, speed=speed)
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == wanted, workload.name
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        assert result["correct"] is True
        assert result["attempted"] >= 1
        if workload.name == "replay-sweep":
            # The arena family replays a mix differently from direct execution.
            assert result["failed"] >= 1
        else:
            assert result["failed"] == 0


def test_corrupted_reference_raises_the_failure_count(tmp_path):
    workload = small_workloads(tmp_path)[0]
    section = workload.run(workload.prepare(), sweeps=1)
    assert workload.check(section, None).failed == 0

    path = workload.refs.path(workload.name, "deepsjeng")
    reference = json.loads(path.read_text())
    reference["halo"][0][1] += 1.0
    path.write_text(json.dumps(reference))
    verdict = workload.check(section, None)
    assert (verdict.attempted, verdict.failed) == (4, 1)


def test_tail_needs_ten_steps_beyond_it():
    assert run.tail([1.0] * 19 + [5.0]) == ("max of 20", 5.0)
    label, value = run.tail([float(i) for i in range(48)])
    assert label == "p79 of 48" and sum(v > value for v in range(48)) >= 10
