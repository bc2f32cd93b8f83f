"""Benchmark of the HALO reproduction: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig13-cold --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` repeats the timed section with every layer's entry point
wrapped in spans and prints the per-layer metrics.  Each metric is printed
on its own line with its unit, and the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fig13-cold", "replay-sweep", "serve-drift")
#: Fresh-interpreter start-ups and in-process set-ups per run; setup_s
#: adds their medians.
STARTUP_REPEATS = 3
SETUP_REPEATS = 3
#: Steps a percentile must leave beyond it to count as the tail.
TAIL_BEYOND = 10
CONFIGS = ("baseline", "halo", "hds", "random-pools", "freelist-ff", "freelist-bf", "arena")
LAYERS = ("harness", "machine", "profiling", "hds", "core", "trace", "columnar",
          "allocators", "sanitize", "serve")


def work_dir() -> Path:
    """Where builds, references and traces go: inside the checkout."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def tail(steps: list[float]) -> tuple[str, float]:
    """The highest whole percentile with TAIL_BEYOND steps beyond it.

    Up to ``2 * TAIL_BEYOND`` steps that percentile would not lie above
    the median, so the slowest step is reported instead.
    """
    ordered = sorted(steps)
    n = len(ordered)
    pct = min(99, (100 * (n - TAIL_BEYOND)) // n) if n > TAIL_BEYOND else 0
    if pct <= 50:
        return f"max of {n}", ordered[-1]
    return f"p{pct} of {n}", ordered[math.ceil(pct * n / 100) - 1]


def startups(programs: tuple[str, ...]) -> list[tuple[float, float]]:
    """Intervals of fresh interpreters each reaching the first call.

    Covers interpreter start, package import, loading the columnar C
    kernel and resolving the workload's programs (generated ones are
    compiled from their names).
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import repro.harness.reproduce, repro.serve\n"
        "from repro.columnar.kernel import kernel_backend; kernel_backend()\n"
        "from repro.workloads.base import get_workload\n"
        f"for name in {programs!r}: get_workload(name)\n"
    )
    intervals = []
    for _ in range(STARTUP_REPEATS):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        intervals.append((started, perf_counter()))
    return intervals


def instrument(tracer) -> None:
    """Wrap the public entry point of each layer in a span."""
    import repro.core.pipeline as core
    import repro.harness.prepare as prepare
    import repro.harness.runner as runner
    import repro.hds.pipeline as hds
    import repro.trace.record as record
    import repro.trace.replay as replay
    from repro.allocators.group import GroupAllocator
    from repro.columnar import engine
    from repro.core.artifact_cache import ArtifactCache
    from repro.sanitize import invariants
    from repro.serve import table
    from repro.trace.format import EventTrace

    def fixed(name):
        return lambda args, kwargs: name

    def count(events):
        def after(attrs, result, args, kwargs):
            attrs["events"] = events(result)
        return after

    def measurement_name(args, kwargs):
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        resolved = runner.resolve_engine(kwargs.get("engine", "auto"), kwargs.get("trace"))
        return {"direct": "machine.direct", "columnar": f"columnar.{config}"}.get(
            resolved, f"trace.replay.{config}")

    def measurement_events(attrs, result, args, kwargs):
        trace = kwargs.get("trace")
        attrs["events"] = (trace.header.events if trace is not None
                                else result.accesses + result.allocs + result.frees)

    def decode_name(args, kwargs):
        return "trace.decode" if args[0]._columns is None else None

    def cache_hit(attrs, result, args, kwargs):
        attrs["hit"] = int(result is not None)

    tracer.wrap(runner, "run_measurement", measurement_name, measurement_events)
    tracer.wrap(prepare, "prepare_workload", fixed("harness.prepare"))
    tracer.wrap(ArtifactCache, "get", fixed("harness.cache.get"), cache_hit)
    tracer.wrap(core, "profile_workload", fixed("profiling.profile"),
                count(lambda r: r.machine_accesses))
    tracer.wrap(replay, "replay_profile", fixed("profiling.replay"),
                count(lambda r: r.machine_accesses))
    tracer.wrap(hds, "analyse_profile", fixed("hds.analyse"))
    tracer.wrap(core, "optimise_profile", fixed("core.optimise"))
    tracer.wrap(record, "record_workload", fixed("trace.record"),
                count(lambda r: r.header.events))
    tracer.wrap(EventTrace, "columns", decode_name,
                lambda attrs, result, args, kwargs: attrs.update(events=len(args[0])))
    tracer.wrap(engine, "score_trace", fixed("columnar.score"))
    tracer.wrap(table, "build_entry", fixed("serve.build_entry"))
    tracer.wrap(GroupAllocator, "migrate_groups", fixed("allocators.migrate"))
    tracer.wrap(invariants, "validate_allocator", fixed("sanitize.validate"))


def end_to_end(section, speed, start_ups, setups, rss_mb: float) -> dict:
    from workloads import fig13_average

    def scaled(intervals):
        return [speed.scale(start, end) for start, end in intervals]

    steps = scaled(section.steps)
    tail_label, tail_value = tail(steps)
    reduction, speedup = fig13_average(section.sim)
    setup_s = statistics.median(scaled(setups))
    if start_ups:
        setup_s += statistics.median(scaled(start_ups))
    wall = statistics.median(end - start for start, end in section.sweeps)
    return {
        "setup_s": (setup_s, "s", f"median of {len(start_ups)} start-ups"
                    f" + median of {len(setups)} set-ups"),
        "sweep_s": (statistics.median(scaled(section.sweeps)), "s",
                    f"median of {len(section.sweeps)} sweeps; wall {wall:.3f} s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms", f"p50 of {len(steps)} steps"),
        "step_ms_tail": (1e3 * tail_value, "ms", tail_label),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
        "sim_l1_miss_reduction_pct": (reduction, "%", f"mean of {len(section.sim)} programs"),
        "sim_speedup_pct": (speedup, "%", f"geomean of {len(section.sim)} programs"),
    }


def per_layer(tracer, speed, traced, untraced) -> dict[str, tuple[float, str, str]]:
    def rate(name: str) -> float:
        seconds, events = tracer.totals(name)
        return events / seconds if seconds > 0 else 0.0

    metrics: dict[str, tuple[float, str, str]] = {
        "machine.direct.events_per_s": (rate("machine.direct"), "1/s", "run_measurement, no trace"),
    }
    profile_s = sum(tracer.totals(n)[0] for n in ("profiling.profile", "profiling.replay"))
    profile_n = sum(tracer.totals(n)[1] for n in ("profiling.profile", "profiling.replay"))
    metrics["profiling.accesses_per_s"] = (
        profile_n / profile_s if profile_s else 0.0, "1/s", "profile_workload + replay_profile")
    metrics["hds.s"] = (tracer.totals("hds.analyse")[0], "s", "analyse_profile")
    metrics["core.s"] = (tracer.totals("core.optimise")[0], "s", "optimise_profile")
    metrics["trace.record.events_per_s"] = (rate("trace.record"), "1/s", "record_workload")
    metrics["trace.decode.events_per_s"] = (rate("trace.decode"), "1/s", "EventTrace.columns")
    for config in CONFIGS:
        metrics[f"columnar.{config}.events_per_s"] = (
            rate(f"columnar.{config}"), "1/s", "run_measurement, columnar")
    # Step 0 is the traced set-up, which fills an empty cache.
    gets = [s for s in tracer.spans()
            if s.name == "harness.cache.get" and s.attrs.get("step") != 0]
    hits = sum(s.attrs["hit"] for s in gets)
    metrics["harness.cache.hit_ratio"] = (
        hits / len(gets) if gets else 0.0, "ratio", f"{hits} of {len(gets)} gets")
    metrics["harness.cache.get_s"] = (
        math.fsum(s.duration for s in gets), "s", "ArtifactCache.get")
    epochs = [(1e3 * speed.scale(*step), regrouped)
              for step, (regrouped, _) in zip(traced.steps, traced.epochs)]
    plain = [ms for ms, regrouped in epochs if not regrouped]
    regroup = [ms for ms, regrouped in epochs if regrouped]
    metrics["serve.plain_epoch_ms_p50"] = (
        statistics.median(plain) if plain else 0.0, "ms", f"p50 of {len(plain)} epochs")
    metrics["serve.regroup_epoch_ms_p50"] = (
        statistics.median(regroup) if regroup else 0.0, "ms", f"p50 of {len(regroup)} epochs")
    stats = traced.stats[0] if traced.stats else {}
    for key in ("swaps", "regroup_attempts", "rollbacks", "migrated_regions", "drift_events"):
        metrics[f"serve.{key}"] = (float(stats.get(key, 0)), "count", "ServeReport.stats")
    attempts = stats.get("regroup_attempts", 0)
    metrics["serve.swap_ratio"] = (
        stats["swaps"] / attempts if attempts else 0.0, "ratio", "swaps per regroup attempt")
    untraced_s, traced_s = (
        statistics.median(speed.scale(*sweep) for sweep in section.sweeps)
        for section in (untraced, traced))
    metrics["trace_overhead_pct"] = (
        100.0 * (traced_s - untraced_s) / untraced_s, "%", "traced vs untraced sweep_s")
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s", "span self time")
    return metrics


def sweeps_for(workload, seconds: float) -> int:
    """Sweeps that fill *seconds* at the workload's nominal sweep time.

    A fixed count, rather than a deadline, gives every run the same number
    of steps, so that a percentile means the same step in every run.
    """
    return max(workload.min_sweeps, round(seconds / workload.nominal_sweep_s))


def measure(workload, seconds: float, trace: bool, speed, start_ups=()) -> dict:
    """Set up, run the timed section, check it; return the result object.

    *speed* is the entered :class:`HostSpeed` that rescales every interval;
    *start_ups* are the intervals of the fresh-interpreter start-ups.
    """
    from repro.workloads.base import get_workload
    from tracing import Tracer

    for name in workload.programs:
        get_workload(name)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        started = perf_counter()
        state = workload.prepare()
        setups.append((started, perf_counter()))
    sweeps = sweeps_for(workload, seconds)
    section = workload.run(state, sweeps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sections = [section]
    correct = all(out == section.outputs[0] for out in section.outputs)
    if trace:
        tracer = Tracer()
        instrument(tracer)
        try:
            with tracer.step(0, "harness.setup"):
                traced_state = workload.prepare()
            traced = workload.run(traced_state, sweeps, tracer)
        finally:
            tracer.uninstall()
        sections.append(traced)
        correct = correct and traced.outputs[0] == section.outputs[0]
        metrics = per_layer(tracer, speed, traced, section)
        trace_file = tracer.write_chrome_trace(
            work_dir() / f"trace-{workload.name}-{workload.seed}.json")
        print(f"# spans: {len(tracer.spans())} written to {trace_file}")
    else:
        metrics = end_to_end(section, speed, start_ups, setups, rss_mb)
    attempted = failed = 0
    for part in sections:
        verdict = workload.check(part, state)
        attempted += verdict.attempted
        failed += verdict.failed
        for note in verdict.notes[:10]:
            print(f"# mismatch: {note}")
    for name, (value, unit, how) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({how})")
    print(f"# {workload.name} seed {workload.seed}: {failed} of {attempted} operations failed")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    work = work_dir()
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The columnar kernel is compiled into, and loaded from, the temp dir.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path[:0] = [str(SRC), str(HERE)]

    # Build: byte-compile the package and compile-or-load the C kernel, so
    # neither lands in the first measured run.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    from repro.columnar.kernel import kernel_backend

    print(f"# columnar kernel backend: {kernel_backend()}")
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, References, source_digest

    refs = References(work / "refs" / source_digest(SRC))
    workload = WORKLOADS[args.workload](args.seed, refs, tmp)
    with HostSpeed() as speed:
        # A traced run reports no setup_s, so it skips the repeated start-ups.
        start_ups = [] if args.trace else startups(workload.programs)
        result = measure(workload, args.seconds, bool(args.trace), speed, start_ups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
