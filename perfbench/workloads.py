"""The benchmark's three workloads and the checks on their outputs.

Each workload has the same shape:

* ``prepare()`` — the set-up a user pays before the timed work (timed
  several times by the runner, which reports the median);
* ``run(state, sweeps, tracer)`` — the timed section: *sweeps* passes over
  the workload's programs, each made of steps that are single calls into a
  public entry point with its default arguments;
* ``check(section, state)`` — compares every simulated output of the
  section with a reference computed by a different path, outside the
  timed section.

References are a pure function of the program sources, the workloads'
configuration (this file) and the input, so they are stored under the work
directory, keyed by a hash of ``src/repro`` and this file, and computed once
per checkout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from repro.allocators.group import GroupAllocator
from repro.allocators.size_class import SizeClassAllocator
from repro.core.artifact_cache import ArtifactCache
from repro.core.selectors import CompiledMatcher
from repro.harness.prepare import get_or_record_trace, prepare_workload
from repro.harness.reproduce import evaluate_all, evaluate_workload
from repro.harness.runner import run_measurement
from repro.machine.machine import GroupStateVector
from repro.serve import MixPhase, ServeConfig, ServeService
from repro.workloads.base import get_workload

from tracing import Tracer

#: Paper Figure 13's set as the ROADMAP sweeps it; deepsjeng is the control.
FIG13_PROGRAMS = ("deepsjeng", "roms", "povray", "ammp")
#: Paper benchmarks of the warm replay sweep: the cheapest to prepare of
#: those whose warm step (~1 s) outlasts every generated program's, so the
#: median step is a paper program's whatever the seed generates.
REPLAY_PAPER_PROGRAMS = ("analyzer", "povray", "xalanc")
#: Standalone allocator families replayed next to the four paper configs.
FAMILIES = ("freelist-ff", "freelist-bf", "arena")
#: Programs of the serve mix, health-heavy first, ft-heavy after the flip.
SERVE_MIX = ("health", "ft")
SERVE_REQUESTS = 96
SERVE_EPOCH_REQUESTS = 4
SERVE_REQUEST_FACTOR = 0.01


@dataclass
class Section:
    """What one timed section did, and what it produced."""

    #: ``(start, end)`` ``perf_counter`` stamps of every sweep and step.
    sweeps: list[tuple[float, float]] = field(default_factory=list)
    steps: list[tuple[float, float]] = field(default_factory=list)
    #: Simulated outputs, one entry per sweep, compared with the reference.
    outputs: list[Any] = field(default_factory=list)
    #: Per-program ``(l1 miss reduction, speedup)`` fractions of sweep 1.
    sim: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: serve-drift only: ``(regrouped, sanitizer findings)`` per epoch (step).
    epochs: list[tuple[bool, int]] = field(default_factory=list)
    #: serve-drift only: each session's final ``ServeStats`` as a dict.
    stats: list[dict] = field(default_factory=list)


@dataclass
class Verdict:
    """Operations checked against their reference, and the failures."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def source_digest(src: Path) -> str:
    """Hash of every Python source of the package under *src*, and of the
    workloads' configuration, which is this file."""
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()[:16]


class References:
    """Per-checkout store of reference outputs (JSON, one file each)."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def get(self, kind: str, key: str, compute: Callable[[], Any]) -> Any:
        """The stored reference, computed and stored first if missing."""
        path = self.path(kind, key)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(compute()))
            tmp.replace(path)
        return json.loads(path.read_text())


def outcome(evaluation) -> dict[str, list]:
    """Every simulated number of one evaluation, JSON-shaped, per config."""
    trials = {"baseline": evaluation.baseline, "halo": evaluation.halo, "hds": evaluation.hds}
    if evaluation.random_pools is not None:
        trials["random-pools"] = evaluation.random_pools
    trials.update(evaluation.extra)
    return {
        config: [
            [m.seed, m.cycles, m.cache.l1_misses, m.cache.l2_misses,
             m.cache.l3_misses, m.cache.tlb_misses]
            for m in trial.measurements
        ]
        for config, trial in trials.items()
    }


def compare(verdict: Verdict, program: str, got: dict, want: dict) -> None:
    """One attempted operation per configuration of *program*."""
    got = json.loads(json.dumps(got))
    for config in sorted(set(got) | set(want)):
        verdict.record(
            got.get(config) == want.get(config),
            f"{program}/{config}: {got.get(config)} != reference {want.get(config)}",
        )


def fig13_average(sim: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """Figure 13's mean miss reduction and Figure 14's geomean speedup, in %."""
    reductions = [r for r, _ in sim.values()]
    ratios = [1.0 + s for _, s in sim.values()]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return 100.0 * statistics.fmean(reductions), 100.0 * (geomean - 1.0)


def _step(tracer: Optional[Tracer], step_id: int, name: str, **attrs):
    return tracer.step(step_id, name, **attrs) if tracer is not None else nullcontext()


class Fig13Cold:
    """Cold Figure-13 sweep: ``evaluate_all`` with no artifact cache."""

    name = "fig13-cold"
    step_span = "harness.evaluate_all"
    #: Sweep wall time on a 2-core Xeon VM, and the fewest sweeps per run.
    #: One sweep, so sweep_s is a single sample here: a second would not fit
    #: the benchmark's run count into its time budget.
    nominal_sweep_s = 22.0
    min_sweeps = 1

    def __init__(self, seed: int, refs: References, work: Path,
                 programs: tuple[str, ...] = FIG13_PROGRAMS) -> None:
        self.seed = seed
        self.refs = refs
        self.programs = programs

    def prepare(self) -> None:
        """A cold sweep has no preparation beyond start-up."""
        return None

    def run(self, state: None, sweeps: int, tracer: Optional[Tracer] = None) -> Section:
        section = Section()
        for _ in range(sweeps):
            sweep_started = perf_counter()
            evaluations = {}
            for name in self.programs:
                with _step(tracer, len(section.steps) + 1, self.step_span, program=name):
                    t = perf_counter()
                    evaluations.update(evaluate_all((name,), trials=1, scale="test"))
                    section.steps.append((t, perf_counter()))
            section.sweeps.append((sweep_started, perf_counter()))
            section.outputs.append({n: outcome(e) for n, e in evaluations.items()})
            if not section.sim:
                section.sim = {n: (e.halo_miss_reduction, e.halo_speedup)
                               for n, e in evaluations.items()}
        return section

    def reference(self, name: str) -> dict:
        """Columnar replay of a freshly recorded trace (not direct execution)."""
        return self.refs.get(self.name, name, lambda: outcome(
            evaluate_workload(name, trials=1, scale="test", engine="columnar")
        ))

    def check(self, section: Section, state: None) -> Verdict:
        verdict = Verdict()
        for sweep in section.outputs:
            for name in self.programs:
                compare(verdict, name, sweep[name], self.reference(name))
        return verdict


class ReplaySweep:
    """Warm trace-driven re-evaluation across seven allocator configurations."""

    name = "replay-sweep"
    step_span = "harness.evaluate_workload"
    nominal_sweep_s = 3.2
    min_sweeps = 1

    def __init__(self, seed: int, refs: References, work: Path,
                 paper: tuple[str, ...] = REPLAY_PAPER_PROGRAMS) -> None:
        self.seed = seed
        self.refs = refs
        self.work = work
        self.paper = paper
        self.programs = paper + (f"scn-{seed}", f"mix-{seed}x3-rr")
        self._caches = 0

    def prepare(self) -> ArtifactCache:
        """Record traces and prepare artifacts into a fresh artifact cache."""
        self._caches += 1
        root = self.work / f"replay-cache-{self._caches}"
        shutil.rmtree(root, ignore_errors=True)
        cache = ArtifactCache(root)
        for name in self.programs:
            prepare_workload(name, cache=cache)
        return cache

    def run(self, cache: ArtifactCache, sweeps: int,
            tracer: Optional[Tracer] = None) -> Section:
        section = Section()
        for _ in range(sweeps):
            sweep_started = perf_counter()
            outputs = {}
            for name in self.programs:
                with _step(tracer, len(section.steps) + 1, self.step_span, program=name):
                    t = perf_counter()
                    evaluation = evaluate_workload(
                        name, trials=1, scale="test", cache=cache,
                        engine="columnar", families=FAMILIES,
                    )
                    section.steps.append((t, perf_counter()))
                outputs[name] = outcome(evaluation)
                if name in self.paper and name not in section.sim:
                    section.sim[name] = (evaluation.halo_miss_reduction, evaluation.halo_speedup)
            section.sweeps.append((sweep_started, perf_counter()))
            section.outputs.append(outputs)
        return section

    def reference(self, name: str, cache: ArtifactCache) -> dict:
        """Direct execution of every configuration on the same artifacts."""
        return self.refs.get(self.name, name, lambda: outcome(
            evaluate_workload(name, trials=1, scale="test", cache=cache,
                              engine="direct", families=FAMILIES)
        ))

    def check(self, section: Section, cache: ArtifactCache) -> Verdict:
        verdict = Verdict()
        for sweep in section.outputs:
            for name in self.programs:
                compare(verdict, name, sweep[name], self.reference(name, cache))
        return verdict


def serve_config(seed: int, requests: int = SERVE_REQUESTS) -> ServeConfig:
    """One client, a health-heavy mix that flips to ft-heavy halfway."""
    health, ft = SERVE_MIX
    phases = (
        MixPhase(0, ((health, 3.0), (ft, 1.0))),
        MixPhase(requests // 2, ((ft, 3.0), (health, 1.0))),
    )
    return ServeConfig(
        seed=seed, requests=requests, epoch_requests=SERVE_EPOCH_REQUESTS,
        request_factor=SERVE_REQUEST_FACTOR, phases=phases,
    )


class ServeDrift:
    """Closed-loop serving session, one epoch per step, the mix drifting."""

    name = "serve-drift"
    step_span = "serve.epoch"
    nominal_sweep_s = 10.0
    #: Two sessions at least, so that their stats can be compared.
    min_sweeps = 2

    def __init__(self, seed: int, refs: References, work: Path,
                 requests: int = SERVE_REQUESTS) -> None:
        self.seed = seed
        self.refs = refs
        self.config = serve_config(seed, requests)
        self.programs = SERVE_MIX
        self._traces = ArtifactCache(refs.root / "artifacts")

    def prepare(self) -> ServeService:
        return ServeService(self.config)

    def run(self, state: ServeService, sweeps: int,
            tracer: Optional[Tracer] = None) -> Section:
        """*sweeps* whole sessions; the first serves on the prepared service."""
        section = Section()
        for _ in range(sweeps):
            service = state if not section.sweeps else ServeService(self.config)
            session_started = perf_counter()
            while True:
                attempts = service.stats.regroup_attempts
                findings = service.stats.sanitize_findings
                with _step(tracer, len(section.epochs) + 1, self.step_span):
                    t = perf_counter()
                    report = service.run(stop_after=self.config.epoch_requests)
                    section.steps.append((t, perf_counter()))
                section.epochs.append((
                    service.stats.regroup_attempts > attempts,
                    service.stats.sanitize_findings - findings,
                ))
                if report.completed:
                    break
            section.sweeps.append((session_started, perf_counter()))
            section.stats.append(dataclasses.asdict(service.stats))
            section.outputs.append(service)
        self._score(section)
        return section

    def _score(self, section: Section) -> None:
        """Each session's final table vs the baseline on the test-scale input.

        Replaces the live services in ``section.outputs`` by their scores,
        so a section holds plain data once the timed work is over.
        """
        traces = {name: get_or_record_trace(name, cache=self._traces) for name in SERVE_MIX}
        scores = []
        for service in section.outputs:
            scores.append({name: self._table_vs_baseline(service, name, trace)
                           for name, trace in traces.items()})
        section.outputs = scores
        section.sim = {name: tuple(value) for name, value in scores[0].items()}

    def _table_vs_baseline(self, service: ServeService, name: str, trace) -> list[float]:
        workload = get_workload(name)
        seed = self.config.seed
        base = run_measurement(workload, SizeClassAllocator, "baseline",
                               scale="test", seed=seed, trace=trace)
        entry = service.table.entries.get(name)
        if entry is None:
            return [0.0, 0.0]
        state_vector = GroupStateVector()
        matcher = CompiledMatcher(list(entry.selectors), entry.bit_for_site)

        def make_allocator(space):
            return GroupAllocator(
                space, SizeClassAllocator(space), matcher, state_vector,
                chunk_size=self.config.chunk_size, slab_size=self.config.slab_size,
                max_grouped_size=service.params.max_grouped_size,
            )

        served = run_measurement(
            workload, make_allocator, "serve-table", scale="test", seed=seed,
            instrumentation=dict(entry.bit_for_site), state_vector=state_vector,
            trace=trace,
        )
        reduction = (base.cache.l1_misses - served.cache.l1_misses) / base.cache.l1_misses
        return [reduction, base.cycles / served.cycles - 1.0]

    def check(self, section: Section, state: ServeService) -> Verdict:
        """Every epoch is an operation: it fails on a sanitizer finding, or
        when its session's stats differ from the reference session's."""
        verdict = Verdict()
        reference = self.refs.get(self.name, f"seed-{self.seed}", lambda: section.stats[0])
        epochs = iter(section.epochs)
        for index, stats in enumerate(section.stats):
            same = json.loads(json.dumps(stats)) == reference
            for _ in range(stats["epochs"]):
                _, findings = next(epochs)
                verdict.record(
                    same and findings == 0,
                    f"session {index + 1}: "
                    + ("stats differ from the reference session" if not same
                       else f"{findings} sanitizer findings"),
                )
        return verdict


WORKLOADS = {cls.name: cls for cls in (Fig13Cold, ReplaySweep, ServeDrift)}
