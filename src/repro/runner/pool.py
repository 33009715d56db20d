"""Parallel experiment scheduler with benchmark-grouped workers.

Execution model:

* Specs are deduplicated, checked against the optional
  :class:`~repro.runner.cache.ResultCache` (all cache I/O stays in the
  parent process — workers never touch the cache, so there are no
  write races), and the misses are grouped by
  ``(benchmark, workload_seed, instructions)``.
* Each group is one unit of work: a worker builds the benchmark's
  dynamic stream **once** and replays it across every configuration
  point in the group — the same generate-once economics the in-process
  :class:`StreamCache` has always provided, now per worker.
* With ``jobs > 1`` the groups run under a
  :class:`~concurrent.futures.ProcessPoolExecutor`; with ``jobs == 1``
  (or a single group) everything runs inline, reusing the caller's
  :class:`StreamCache` when one is supplied.
* Results are merged back **in spec order** regardless of completion
  order, so parallel output is bit-identical to the serial path.

The cumulative :class:`TimingReport` records per-point wall times,
cache hits and executed counts — ``repro all --timing-report`` writes
it out for CI artifacts.

:func:`run_observed` is the same frontend point with the
:mod:`repro.obs` event bus attached — the glue behind ``repro stats``
/ ``repro trace``.  It never consults the result cache: events cannot
be served from cached aggregates.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.engine import FunctionalEngine, Stream
from repro.obs.events import ObsBus
from repro.obs.manifest import build_manifest
from repro.obs.metrics import DEFAULT_BUCKET_CYCLES, IntervalMetrics
from repro.obs.perfetto import write_perfetto
from repro.obs.sinks import RingBufferSink, write_events_jsonl
from repro.processor import run_processor
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec, RunResult, resolve_instructions
from repro.sim import DynamicPartitionConfig, FrontendResult, run_frontend
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.session import activate_worker, current_telemetry
from repro.vector import BatchPlan, build_plan, plan_key
from repro.workloads import build_workload

Progress = Callable[[str], None]


class StreamCache:
    """Generate-once cache of benchmark images and dynamic streams.

    Keyed by ``(benchmark, workload_seed)``; a ``workload_seed`` of
    ``None`` keeps the benchmark profile's own seed.
    """

    def __init__(self, instructions: Optional[int] = None) -> None:
        self.instructions = resolve_instructions(instructions)
        self.tele = current_telemetry()
        self._streams: dict[tuple[str, Optional[int]], Stream] = {}
        self._images: dict[tuple[str, Optional[int]], Any] = {}
        self._traces: dict[tuple, list] = {}
        self._plans: dict[tuple, BatchPlan] = {}

    def image(self, benchmark: str, workload_seed: Optional[int] = None):
        key = (benchmark, workload_seed)
        if key not in self._images:
            with (self.tele.span("workload.image", benchmark=benchmark)
                  if self.tele else nullcontext()):
                self._images[key] = build_workload(
                    benchmark, seed=workload_seed).image
        return self._images[key]

    def stream(self, benchmark: str,
               workload_seed: Optional[int] = None) -> Stream:
        key = (benchmark, workload_seed)
        if key not in self._streams:
            image = self.image(benchmark, workload_seed)
            with (self.tele.span("workload.stream", benchmark=benchmark,
                                 instructions=self.instructions)
                  if self.tele else nullcontext()):
                engine = FunctionalEngine(image)
                self._streams[key] = engine.run(self.instructions)
        return self._streams[key]

    def traces(self, benchmark: str, instructions: int,
               selection, workload_seed: Optional[int] = None) -> list:
        """The stream's trace partition under ``selection``.

        Partitioning depends only on the stream prefix and the selection
        rules — not on any cache/predictor sizing — so every point of a
        sweep over one benchmark shares the same trace sequence.  The
        selector's interning makes the cached sequence mostly shared
        objects, so this is cheap to hold and makes downstream identity
        fast paths (trace-cache probes, predictor training) hit across
        the whole sweep, not just within one point.
        """
        key = (benchmark, workload_seed, instructions, selection)
        traces = self._traces.get(key)
        if traces is None:
            from repro.trace import traces_of_stream
            stream = self.stream(benchmark, workload_seed)[:instructions]
            traces = traces_of_stream(stream, selection)
            self._traces[key] = traces
        return traces

    def plan(self, benchmark: str, instructions: int, config,
             workload_seed: Optional[int] = None) -> BatchPlan:
        """The partition's :class:`~repro.vector.BatchPlan` for
        ``config``'s point-independent knobs.

        Keyed by :func:`repro.vector.plan_key` — every sweep point
        differing only in cache sizing / mechanism / penalties shares
        one plan, so the next-trace and bimodal replays run once per
        partition rather than once per point.
        """
        key = (benchmark, workload_seed, instructions, plan_key(config))
        plan = self._plans.get(key)
        if plan is None:
            traces = self.traces(benchmark, instructions,
                                 config.selection, workload_seed)
            with (self.tele.span("workload.plan", benchmark=benchmark,
                                 instructions=instructions)
                  if self.tele else nullcontext()):
                plan = build_plan(traces, config)
            self._plans[key] = plan
        return plan


# ----------------------------------------------------------------------
# Single-point execution
# ----------------------------------------------------------------------
def _frontend_metrics(stats) -> dict[str, Any]:
    return dict(stats.summary())


def _processor_metrics(stats) -> dict[str, Any]:
    return {
        "instructions": stats.instructions,
        "traces": stats.traces,
        "cycles": stats.cycles,
        "ipc": stats.ipc,
        "trace_misses_per_ki": stats.trace_miss_rate_per_ki,
        "buffer_hits": stats.buffer_hits,
    }


def execute_spec(spec: ExperimentSpec,
                 stream_cache: Optional[StreamCache] = None) -> RunResult:
    """Run one simulation point, bypassing the result cache.

    A supplied ``stream_cache`` is reused when its budget covers the
    spec (the functional engine is sequential and deterministic, so a
    longer stream's prefix equals a shorter run); otherwise a private
    one is built at the spec's budget.
    """
    tele = current_telemetry()
    if tele is None:
        return _execute_spec(spec, stream_cache)
    with tele.span("runner.point", label=spec.label,
                   kind=spec.kind) as record:
        result = _execute_spec(spec, stream_cache)
        record["attrs"]["wall_seconds"] = round(result.wall_seconds, 6)
        return result


def _run_frontend_point(spec: ExperimentSpec, stream_cache: StreamCache,
                        obs: Optional[ObsBus] = None) -> FrontendResult:
    """One frontend point on the stream cache's memoised plan."""
    image = stream_cache.image(spec.benchmark, spec.workload_seed)
    config = spec.frontend_config()
    plan = stream_cache.plan(spec.benchmark, spec.instructions, config,
                             spec.workload_seed)
    return run_frontend(image, config, plan=plan, obs=obs)


def _execute_spec(spec: ExperimentSpec,
                  stream_cache: Optional[StreamCache] = None) -> RunResult:
    started = time.perf_counter()
    if spec.kind == "check":
        # Differential validation builds (and re-builds) its own
        # execution legs — a shared stream cache would defeat the
        # regeneration-based determinism oracle.
        from repro.check.harness import execute_check

        return RunResult(spec=spec, metrics=execute_check(spec),
                         wall_seconds=time.perf_counter() - started,
                         manifest=build_manifest(spec))
    if stream_cache is None or stream_cache.instructions < spec.instructions:
        stream_cache = StreamCache(spec.instructions)
    image = stream_cache.image(spec.benchmark, spec.workload_seed)

    if spec.kind == "frontend":
        result = _run_frontend_point(spec, stream_cache)
        metrics = _frontend_metrics(result.stats)
    elif spec.kind == "processor":
        processor_config = spec.processor_config()
        plan = stream_cache.plan(spec.benchmark, spec.instructions,
                                 processor_config.frontend,
                                 spec.workload_seed)
        result = run_processor(
            image, processor_config, spec.instructions,
            stream=stream_cache.stream(spec.benchmark, spec.workload_seed),
            plan=plan)
        metrics = _processor_metrics(result.stats)
    else:  # dynamic
        config = spec.frontend_config()
        result = run_frontend(
            image, config, partition=DynamicPartitionConfig(),
            plan=stream_cache.plan(spec.benchmark, spec.instructions,
                                   config, spec.workload_seed))
        events = result.partition_events or []
        metrics = {
            "trace_misses_per_ki": result.stats.trace_miss_rate_per_ki,
            "pb_trajectory": [event.pb_entries for event in events],
            "epoch_miss_rates": [event.epoch_miss_rate for event in events],
        }
    return RunResult(spec=spec, metrics=metrics,
                     wall_seconds=time.perf_counter() - started,
                     manifest=build_manifest(spec))


def run_point(spec: ExperimentSpec, *,
              stream_cache: Optional[StreamCache] = None,
              cache: Optional[ResultCache] = None) -> RunResult:
    """Run (or cache-serve) one simulation point."""
    if cache is not None:
        hit = cache.get(spec)
        if hit is not None:
            return hit
    result = execute_spec(spec, stream_cache)
    if cache is not None:
        cache.put(spec, result)
    return result


@dataclass
class ObservedRun:
    """Everything one observed execution produced."""

    result: RunResult
    stats: Any                       # FrontendStats (raw counters)
    events: list[dict[str, Any]] = field(default_factory=list)
    metrics: Optional[IntervalMetrics] = None

    def write_events(self, path: str | Path) -> Path:
        return write_events_jsonl(self.events, path)

    def write_metrics(self, path: str | Path) -> Path:
        assert self.metrics is not None
        return self.metrics.write_jsonl(path)

    def write_perfetto(self, path: str | Path) -> Path:
        return write_perfetto(self.events, path,
                              label=self.result.spec.label)


def run_observed(spec: ExperimentSpec, *,
                 bucket_cycles: int = DEFAULT_BUCKET_CYCLES) -> ObservedRun:
    """Execute frontend ``spec`` with the event bus attached: the
    result, the full event stream and the interval metrics together.

    The event stream is a pure function of the spec — identical across
    reruns, ``PYTHONHASHSEED`` and processes.
    """
    if spec.kind != "frontend":
        raise ValueError(f"observed runs support kind='frontend' only, "
                         f"got {spec.kind!r}")
    sink = RingBufferSink(capacity=None)
    bus = ObsBus(sink, IntervalMetrics(bucket_cycles))
    started = time.perf_counter()
    sim_result = _run_frontend_point(spec, StreamCache(spec.instructions),
                                     obs=bus)
    result = RunResult(spec=spec, metrics=_frontend_metrics(sim_result.stats),
                       wall_seconds=time.perf_counter() - started,
                       manifest=build_manifest(spec))
    return ObservedRun(result=result, stats=sim_result.stats,
                       events=list(sink.events), metrics=bus.metrics)


def _run_group(specs: tuple[ExperimentSpec, ...]) -> list[RunResult]:
    """Worker entry point: one benchmark group, one stream generation."""
    stream_cache = StreamCache(max(spec.instructions for spec in specs))
    return [execute_spec(spec, stream_cache) for spec in specs]


def _run_group_traced(specs: tuple[ExperimentSpec, ...],
                      context: Mapping[str, Any]
                      ) -> tuple[list[RunResult], dict[str, Any]]:
    """Worker entry point with telemetry.

    ``context`` is the parent's span-context handoff; a fresh worker
    session is activated (replacing anything fork-inherited) so the
    harvest shipped back contains only this group's spans/metrics.
    """
    tele = activate_worker(context)
    with tele.span("runner.group", benchmark=specs[0].benchmark,
                   points=len(specs)):
        results = _run_group(specs)
    return results, tele.harvest()


# ----------------------------------------------------------------------
# Timing report
# ----------------------------------------------------------------------
class TimingReport:
    """Cumulative accounting for one runner's lifetime.

    The tallies are backed by a private
    :class:`~repro.telemetry.registry.MetricsRegistry` (counters plus
    a fixed-bucket histogram of per-point wall times), but the public
    shape — ``requested`` / ``unique`` / ``executed`` / ``cache_hits``
    / ``wall_seconds`` attributes, ``points`` list, ``to_dict`` /
    ``to_json`` / ``summary`` — is unchanged from the dataclass era.
    The registry is private, not the process session's: ``repro
    bench`` builds one runner per section and each section's report
    must stand alone.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs
        self.points: list[dict[str, Any]] = []
        self.registry = MetricsRegistry()
        self._requested = self.registry.counter(
            "repro_runner_requested",
            help="Specs requested, duplicates included")
        self._unique = self.registry.counter(
            "repro_runner_unique", help="Distinct specs after dedup")
        self._executed = self.registry.counter(
            "repro_runner_executed", help="Simulations actually run")
        self._cache_hits = self.registry.counter(
            "repro_runner_cache_hits",
            help="Specs served from the result cache")
        self._wall = self.registry.counter(
            "repro_runner_wall_seconds",
            help="Scheduler wall-clock seconds")
        self._point_seconds = self.registry.histogram(
            "repro_runner_point_seconds",
            help="Per-point simulation wall seconds")

    @property
    def requested(self) -> int:
        return int(self._requested.value)

    @property
    def unique(self) -> int:
        return int(self._unique.value)

    @property
    def executed(self) -> int:
        return int(self._executed.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def wall_seconds(self) -> float:
        return float(self._wall.value)

    def add(self, *, requested: int = 0, unique: int = 0,
            executed: int = 0, cache_hits: int = 0,
            wall_seconds: float = 0.0) -> None:
        """One scheduler pass's tallies (the runner calls this)."""
        self._requested.add(requested)
        self._unique.add(unique)
        self._executed.add(executed)
        self._cache_hits.add(cache_hits)
        self._wall.add(wall_seconds)

    def merge(self, other: TimingReport) -> None:
        """Fold another report's tallies and points into this one."""
        self.registry.merge(other.registry.to_dict())
        self.points += other.points

    def record(self, result: RunResult) -> None:
        self._point_seconds.observe(result.wall_seconds)
        self.points.append({"spec": result.spec.label,
                            "kind": result.spec.kind,
                            "wall_seconds": result.wall_seconds,
                            "cached": result.cached})

    def to_dict(self) -> dict[str, Any]:
        return {"jobs": self.jobs, "requested": self.requested,
                "unique": self.unique, "executed": self.executed,
                "cache_hits": self.cache_hits,
                "wall_seconds": self.wall_seconds, "points": self.points}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        return (f"{self.requested} points ({self.unique} unique): "
                f"{self.executed} executed, {self.cache_hits} cache hits, "
                f"jobs={self.jobs}, {self.wall_seconds:.2f}s")


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
def stderr_progress(message: str) -> None:
    """Default progress sink: one line per event on stderr."""
    print(message, file=sys.stderr, flush=True)


class ExperimentRunner:
    """Schedules :class:`ExperimentSpec` batches across processes.

    One runner may be reused across several batches (``repro all`` runs
    one batch per exhibit set); its :class:`TimingReport` accumulates.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 stream_cache: Optional[StreamCache] = None,
                 progress: Optional[Progress] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.stream_cache = stream_cache
        self.progress = progress
        self.tele = current_telemetry()
        self.report = TimingReport(jobs=jobs)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ExperimentSpec]) -> list[RunResult]:
        """Run ``specs``; results come back in spec order.

        Duplicate specs are computed once and share one result object.
        """
        if self.tele is None:
            return self._run(specs)
        with self.tele.span("runner.batch", specs=len(specs),
                            jobs=self.jobs):
            return self._run(specs)

    def _run(self, specs: Sequence[ExperimentSpec]) -> list[RunResult]:
        started = time.perf_counter()
        unique = list(dict.fromkeys(specs))
        results: dict[ExperimentSpec, RunResult] = {}

        if self.cache is not None:
            for spec in unique:
                hit = self.cache.get(spec)
                if hit is not None:
                    results[spec] = hit
        hits = len(results)
        missing = [spec for spec in unique if spec not in results]

        groups = self._group(missing)
        if hits and self.progress:
            self.progress(f"cache: {hits} hits, {len(missing)} to run "
                          f"in {len(groups)} benchmark groups")
        if len(groups) > 1 and self.jobs > 1:
            executed = self._run_parallel(groups)
        else:
            executed = self._run_inline(groups)
        for result in executed:
            results[result.spec] = result
            if self.cache is not None:
                self.cache.put(result.spec, result)

        tally = TimingReport(jobs=self.jobs)
        tally.add(requested=len(specs), unique=len(unique),
                  executed=len(executed), cache_hits=hits,
                  wall_seconds=time.perf_counter() - started)
        for spec in unique:
            tally.record(results[spec])
        # The report is cumulative across batches; the process session
        # gets this pass's deltas, so ``--telemetry-json`` sees
        # scheduler totals without reaching into per-runner reports.
        self.report.merge(tally)
        if self.tele:
            self.tele.registry.merge(tally.registry.to_dict())
        return [results[spec] for spec in specs]

    # ------------------------------------------------------------------
    @staticmethod
    def _group(specs: Iterable[ExperimentSpec]
               ) -> list[tuple[ExperimentSpec, ...]]:
        """Deterministic benchmark groups, preserving spec order."""
        grouped: dict[tuple, list[ExperimentSpec]] = {}
        for spec in specs:
            key = (spec.benchmark, spec.workload_seed, spec.instructions)
            grouped.setdefault(key, []).append(spec)
        return [tuple(group) for group in grouped.values()]

    def _run_inline(self, groups: list[tuple[ExperimentSpec, ...]]
                    ) -> list[RunResult]:
        executed: list[RunResult] = []
        for index, group in enumerate(groups, start=1):
            group_started = time.perf_counter()
            budget = max(spec.instructions for spec in group)
            stream_cache = self.stream_cache
            if stream_cache is None or stream_cache.instructions < budget:
                stream_cache = StreamCache(budget)
            with (self.tele.span("runner.group",
                                 benchmark=group[0].benchmark,
                                 points=len(group))
                  if self.tele else nullcontext()):
                executed.extend(execute_spec(spec, stream_cache)
                                for spec in group)
            self._announce(index, len(groups), group,
                           time.perf_counter() - group_started)
        return executed

    def _run_parallel(self, groups: list[tuple[ExperimentSpec, ...]]
                      ) -> list[RunResult]:
        executed: list[RunResult] = []
        workers = min(self.jobs, len(groups))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if self.tele:
                context = self.tele.handoff()
                futures = {pool.submit(_run_group_traced, group, context): group
                           for group in groups}
            else:
                futures = {pool.submit(_run_group, group): group
                           for group in groups}
            done = 0
            for future in as_completed(futures):
                group = futures[future]
                outcome = future.result()
                if self.tele:
                    results, harvest = outcome
                    self.tele.absorb(harvest)
                else:
                    results = outcome
                executed.extend(results)
                done += 1
                self._announce(done, len(groups), group,
                               sum(r.wall_seconds for r in results))
        return executed

    def _announce(self, done: int, total: int,
                  group: tuple[ExperimentSpec, ...],
                  seconds: float) -> None:
        if self.progress and group:
            self.progress(f"[{done}/{total}] {group[0].benchmark}: "
                          f"{len(group)} points in {seconds:.2f}s")


def sweep(specs: Sequence[ExperimentSpec], *, jobs: int = 1,
          cache: Optional[ResultCache] = None,
          stream_cache: Optional[StreamCache] = None,
          progress: Optional[Progress] = None) -> list[RunResult]:
    """One-shot convenience wrapper around :class:`ExperimentRunner`."""
    runner = ExperimentRunner(jobs=jobs, cache=cache,
                              stream_cache=stream_cache, progress=progress)
    return runner.run(list(specs))
