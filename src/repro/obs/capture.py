"""One-call observed execution of a frontend experiment point.

:func:`run_observed` is the glue the ``repro stats`` / ``repro trace``
CLI commands and the determinism tests stand on: it executes one
frontend :class:`~repro.runner.spec.ExperimentSpec` with the event bus
attached and returns the result, the full event stream, and the
interval metrics together.

Observed runs always execute — they never consult the result cache
(events cannot be served from cached aggregates) — and they reuse the
same generate-once :class:`~repro.runner.pool.StreamCache` economics
as the ordinary runner, so the event stream is a pure function of the
spec.  :func:`run_observed_many` fans observed runs across worker
processes; because each spec's stream is deterministic, parallel
results are element-wise identical to serial ones.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs.events import ObsBus
from repro.obs.metrics import DEFAULT_BUCKET_CYCLES, IntervalMetrics
from repro.obs.sinks import RingBufferSink, write_events_jsonl


@dataclass
class ObservedRun:
    """Everything one observed execution produced."""

    result: Any                      # RunResult
    stats: Any                       # FrontendStats (raw counters)
    events: list[dict[str, Any]] = field(default_factory=list)
    metrics: Optional[IntervalMetrics] = None

    def write_events(self, path: str | Path) -> Path:
        return write_events_jsonl(self.events, path)

    def write_metrics(self, path: str | Path) -> Path:
        assert self.metrics is not None
        return self.metrics.write_jsonl(path)

    def write_perfetto(self, path: str | Path) -> Path:
        from repro.obs.perfetto import write_perfetto

        return write_perfetto(self.events, path,
                              label=self.result.spec.label)


def run_observed(spec, *,
                 bucket_cycles: int = DEFAULT_BUCKET_CYCLES,
                 stream_cache=None) -> ObservedRun:
    """Execute ``spec`` (kind ``"frontend"``) with observability on.

    The result cache is deliberately bypassed: the point of an
    observed run is the event stream, which only execution produces.
    """
    import time

    from repro.obs.manifest import build_manifest
    from repro.runner.pool import StreamCache
    from repro.runner.spec import RunResult
    from repro.sim import run_frontend

    if spec.kind != "frontend":
        raise ValueError(f"observed runs support kind='frontend' only, "
                         f"got {spec.kind!r}")
    sink = RingBufferSink(capacity=None)
    bus = ObsBus(sink, IntervalMetrics(bucket_cycles))
    started = time.perf_counter()
    if stream_cache is None or stream_cache.instructions < spec.instructions:
        stream_cache = StreamCache(spec.instructions)
    image = stream_cache.image(spec.benchmark, spec.workload_seed)
    config = spec.frontend_config()
    plan = stream_cache.plan(spec.benchmark, spec.instructions, config,
                             spec.workload_seed)
    sim_result = run_frontend(image, config, plan=plan, obs=bus)
    result = RunResult(spec=spec, metrics=dict(sim_result.stats.summary()),
                       wall_seconds=time.perf_counter() - started,
                       manifest=build_manifest(spec))
    return ObservedRun(result=result, stats=sim_result.stats,
                       events=list(sink.events), metrics=bus.metrics)


def run_observed_many(specs: Sequence, jobs: int = 1) -> list[ObservedRun]:
    """Observed runs for every spec, optionally across processes.

    Results come back in spec order; each element is identical to what
    a serial :func:`run_observed` of the same spec produces.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(specs) <= 1:
        return [run_observed(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        return list(pool.map(run_observed, specs))
