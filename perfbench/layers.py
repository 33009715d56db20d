"""Per-layer tracing for the benchmark's traced run.

The simulator is not instrumented for this: every layer boundary is a
wrapper installed from here around a public function or method of that
layer, and removed again afterwards, so untraced runs execute the
unmodified program.

Each wrapped call is timed on one explicit stack.  On return its
duration minus the time of the wrapped calls nested inside it is added
to the layer's *self time*, so self times never double count and, with
the benchmark's own loop as the root, sum to the traced wall time.
Coarse boundaries (a point, a workload build, a cache read) are also
recorded as spans in a :class:`repro.telemetry.SpanTracer` and written
out at the end; per-cycle and per-trace boundaries (mechanism ticks,
predictor and I-cache calls) only accumulate, because a span record per
call would cost more than the work it measures.

Counts are taken at the same boundaries, mostly from the statistics
objects the wrapped call returns.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# (metric, unit) in output order.  Seconds are self times.
METRICS: tuple[tuple[str, str], ...] = (
    ("workloads.generate_s", "s"), ("workloads.images", "count"),
    ("static.verify_s", "s"), ("static.verify_calls", "count"),
    ("static.predict_s", "s"),
    ("check.oracles_s", "s"), ("check.cases", "count"),
    ("check.violations", "count"),
    ("engine.stream_s", "s"), ("engine.instructions", "count"),
    ("trace.partition_s", "s"), ("trace.traces", "count"),
    ("sim.dispatch_s", "s"), ("sim.points", "count"),
    ("trace.tc_lookups", "count"), ("trace.tc_hit_ratio", "ratio"),
    ("branch.s", "s"), ("branch.calls", "count"),
    ("branch.ntp_accuracy", "ratio"),
    ("frontends.preconstruction.s", "s"),
    ("frontends.preconstruction.ticks", "count"),
    ("frontends.mana.s", "s"), ("frontends.mana.ticks", "count"),
    ("frontends.pmap.s", "s"), ("frontends.pmap.ticks", "count"),
    ("frontends.nextline.s", "s"), ("frontends.nextline.ticks", "count"),
    ("core.decode_steps", "count"), ("core.traces_constructed", "count"),
    ("core.idle_cycles_offered", "count"),
    ("core.buffer_hit_ratio", "ratio"), ("core.duplicate_ratio", "ratio"),
    ("frontends.lines_requested", "count"),
    ("frontends.lines_prefetched", "count"),
    ("caches.fetch_s", "s"), ("caches.line_fetches", "count"),
    ("caches.miss_ratio", "ratio"),
    ("processor.s", "s"), ("processor.points", "count"),
    ("preprocess.s", "s"),
    ("vector.plan_s", "s"), ("vector.batch_s", "s"),
    ("runner.s", "s"), ("runner.cache_get_s", "s"),
    ("runner.cache_put_s", "s"), ("runner.cache_writes", "count"),
    ("obs.manifest_s", "s"),
    ("tracing.run_s", "s"), ("tracing.untraced_run_s", "s"),
    ("tracing.overhead_s", "s"), ("tracing.layer_sum_ratio", "ratio"),
)

#: Self-time layers reported above; the remainder of a phase is the
#: benchmark's own loop.
LAYER_SECONDS = tuple(name for name, unit in METRICS
                      if unit == "s" and not name.startswith("tracing."))

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTracer:
    """Install layer wrappers, accumulate self times and counts."""

    def __init__(self) -> None:
        from repro.telemetry import SpanTracer

        self.spans = SpanTracer()
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._frames: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _timed(self, layer: str, fn: Callable, count: Optional[str],
               after: Optional[Callable[[Any], None]], span: bool
               ) -> Callable:
        frames = self._frames
        seconds = self.seconds
        counts = self.counts
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                elapsed = clock() - start
                frames.pop()
                seconds[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if count is not None:
                    counts[count] += 1

        if not span:
            return timed
        tracer = self.spans

        def spanned(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer):
                return timed(*args, **kwargs)
        return spanned

    @contextmanager
    def phase(self, name: str) -> Iterator[dict[str, float]]:
        """A root interval (set-up or run).  Yields a dict that gets
        ``layer_seconds``, the self times of the wrapped layers inside
        it, on exit."""
        outcome: dict[str, float] = {}
        before = sum(self.seconds.values())
        self._frames.append([0.0])
        with self.spans.span(f"bench.{name}"):
            try:
                yield outcome
            finally:
                self._frames.pop()
                outcome["layer_seconds"] = sum(self.seconds.values()) - before

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch_method(self, cls: type, attr: str, layer: str,
                      count: Optional[str] = None,
                      after: Optional[Callable[[Any], None]] = None,
                      span: bool = False) -> None:
        own = attr in cls.__dict__
        original = cls.__dict__[attr] if own else getattr(cls, attr)
        setattr(cls, attr, self._timed(layer, original, count, after, span))
        if own:
            self._undo.append(lambda: setattr(cls, attr, original))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def _patch_function(self, fn: Callable, layer: str,
                        count: Optional[str] = None,
                        after: Optional[Callable[[Any], None]] = None,
                        span: bool = True) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it
        (``from x import fn`` copies the reference)."""
        wrapper = self._timed(layer, fn, count, after, span)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn))

    def install(self) -> None:
        """Wrap every layer boundary (idempotent per tracer)."""
        if self._undo:
            return
        import repro.api  # noqa: F401  (binds every re-exported name first)
        import repro.vector  # noqa: F401
        from repro.branch import BimodalPredictor
        from repro.branch.nexttrace import NextTracePredictor
        from repro.caches import InstructionCache
        from repro.check import execute_check, run_fuzz
        from repro.core import PreconstructionEngine
        from repro.engine import FunctionalEngine
        from repro.frontends.mana import ManaPrefetcher
        from repro.frontends.nextline import NextLinePrefetcher
        from repro.frontends.pmap import ProgramMapFetcher
        from repro.obs.manifest import build_manifest
        from repro.preprocess.pipeline import Preprocessor
        from repro.processor.timing import ProcessorSimulation, run_processor
        from repro.runner import ExperimentRunner, ResultCache
        from repro.sim.frontend_runner import FrontendSimulation, run_frontend
        from repro.static.predictor import predict_coverage
        from repro.static.verifier import verify_image
        from repro.trace import TraceCache, traces_of_stream
        from repro.vector import build_plan, run_frontend_batch
        from repro.workloads.generator import generate

        counts = self.counts

        def add(key: str, amount: int) -> None:
            counts[key] += amount

        def observe_batch(results: list) -> None:
            counts["sim.points"] += len(results)
            for result in results:
                self._observe(result)

        # Set-up layers.
        self._patch_function(generate, "workloads.generate_s",
                             "workloads.images")
        self._patch_function(verify_image, "static.verify_s",
                             "static.verify_calls")
        self._patch_function(predict_coverage, "static.predict_s")
        self._patch_method(FunctionalEngine, "run", "engine.stream_s",
                           after=lambda r: add("engine.instructions", len(r)),
                           span=True)
        self._patch_function(traces_of_stream, "trace.partition_s",
                             after=lambda r: add("trace.traces", len(r)))
        self._patch_function(build_plan, "vector.plan_s")

        # Validation and scheduling layers.
        self._patch_function(run_fuzz, "check.oracles_s")
        self._patch_function(
            execute_check, "check.oracles_s", "check.cases",
            after=lambda m: add("check.violations", m.get("violations", 0)))
        self._patch_method(ExperimentRunner, "run", "runner.s", span=True)
        self._patch_method(ResultCache, "get", "runner.cache_get_s",
                           span=True)
        self._patch_method(ResultCache, "put", "runner.cache_put_s",
                           "runner.cache_writes", span=True)
        self._patch_function(build_manifest, "obs.manifest_s", span=False)

        # Simulation layers.
        self._patch_function(run_frontend, "sim.dispatch_s")
        self._patch_method(FrontendSimulation, "run", "sim.dispatch_s",
                           "sim.points", after=self._observe, span=True)
        self._patch_function(run_frontend_batch, "vector.batch_s",
                             after=observe_batch)
        self._patch_function(run_processor, "processor.s")
        self._patch_method(ProcessorSimulation, "run", "processor.s",
                           "processor.points", after=self._observe,
                           span=True)
        self._patch_method(Preprocessor, "process", "preprocess.s")

        # Per-trace and per-cycle layers (accumulate only).
        for attr in ("tick", "observe_dispatch", "probe_and_promote"):
            self._patch_method(
                PreconstructionEngine, attr, "frontends.preconstruction.s",
                "frontends.preconstruction.ticks" if attr == "tick" else None)
        for cls in (ManaPrefetcher, ProgramMapFetcher, NextLinePrefetcher):
            for attr in ("tick", "observe_dispatch", "on_slow_path", "probe"):
                self._patch_method(
                    cls, attr, f"frontends.{cls.name}.s",
                    f"frontends.{cls.name}.ticks" if attr == "tick" else None)
        for cls, attrs in ((BimodalPredictor, ("predict", "peek", "update")),
                           (NextTracePredictor, ("predict", "update"))):
            for attr in attrs:
                self._patch_method(cls, attr, "branch.s", "branch.calls")
        self._patch_method(
            InstructionCache, "fetch_line", "caches.fetch_s",
            "caches.line_fetches",
            after=lambda r: add("caches.misses", 1 if r[1] else 0))
        # Trace-cache probes are counted, not timed: they are the
        # cheapest per-trace call and belong to their caller's time.
        lookup = TraceCache.lookup

        def counted_lookup(cache: Any, trace_id: Any) -> Any:
            found = lookup(cache, trace_id)
            counts["trace.tc_lookups"] += 1
            if found is not None:
                counts["trace.tc_hits"] += 1
            return found
        TraceCache.lookup = counted_lookup  # type: ignore[method-assign]
        self._undo.append(lambda: setattr(TraceCache, "lookup", lookup))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    def _observe(self, result: Any) -> None:
        """Counts from one simulation's result object."""
        counts = self.counts
        stats = result.stats
        counts["branch.ntp_correct"] += stats.ntp_correct
        counts["branch.ntp_total"] += (stats.ntp_correct + stats.ntp_wrong
                                       + stats.ntp_none)
        engine = result.preconstruction
        if engine is not None:
            core = engine.stats
            counts["core.decode_steps"] += core.decode_steps
            counts["core.traces_constructed"] += core.traces_constructed
            counts["core.idle_cycles_offered"] += core.idle_cycles_offered
            counts["core.buffer_hits"] += core.buffer_hits
            counts["core.duplicates"] += core.traces_duplicate
        mechanism = getattr(result, "mechanism", None)
        if hasattr(mechanism, "lines_requested"):
            counts["frontends.lines_requested"] += mechanism.lines_requested
            counts["frontends.lines_prefetched"] += mechanism.lines_prefetched

    # ------------------------------------------------------------------
    def metrics(self, layer_seconds: float, run_wall: float, run_s: float,
                untraced_run_s: float) -> dict[str, float]:
        """Every :data:`METRICS` value.

        ``layer_seconds`` is the layers' self time inside the traced
        points, whose raw wall time is ``run_wall``; ``run_s`` and
        ``untraced_run_s`` are the host-calibrated times of the traced
        and untraced passes.
        """
        counts = self.counts
        values: dict[str, float] = {}
        for name in LAYER_SECONDS:
            values[name] = self.seconds.get(name, 0.0)
        for name, unit in METRICS:
            if unit == "count":
                values[name] = counts.get(name, 0)
        values["trace.tc_hit_ratio"] = _ratio(counts["trace.tc_hits"],
                                              counts["trace.tc_lookups"])
        values["branch.ntp_accuracy"] = _ratio(counts["branch.ntp_correct"],
                                               counts["branch.ntp_total"])
        constructed = counts["core.traces_constructed"]
        values["core.buffer_hit_ratio"] = _ratio(counts["core.buffer_hits"],
                                                 constructed)
        values["core.duplicate_ratio"] = _ratio(counts["core.duplicates"],
                                                constructed)
        values["caches.miss_ratio"] = _ratio(counts["caches.misses"],
                                             counts["caches.line_fetches"])
        values["tracing.run_s"] = run_s
        values["tracing.untraced_run_s"] = untraced_run_s
        values["tracing.overhead_s"] = run_s - untraced_run_s
        values["tracing.layer_sum_ratio"] = _ratio(layer_seconds, run_wall)
        return values
