"""The cross-model invariant catalogue.

Each oracle is a pure function ``CheckBundle -> list[Violation]``.  The
bundle lazily materialises every execution leg a case needs — two
independent functional runs, frontend replays with observability on and
off, a trace-partition replay, a preconstruction-flipped variant, the
recovered static CFG — so an oracle subset (the minimizer's fast path)
only pays for the legs it actually reads.

Oracle catalogue (name → what it proves):

``determinism``
    The generator and the functional engine are pure functions of the
    profile: regenerating the image yields the same content digest, and
    two fresh engines produce identical committed streams.
``conservation``
    Timing-counter conservation laws over the frontend run: fetched ≥
    committed, hits + misses = traces = next-trace predictions =
    trace-cache lookups, slow-path/bimodal/I-cache counter bounds.
``intervals``
    The bucketed Figure-5 counters from :mod:`repro.obs` sum across
    interval buckets to the end-of-run totals, and the histograms'
    masses agree with the counters they were fed from.
``cfg``
    Static-CFG-vs-dynamic-edge containment: every edge the committed
    stream takes exists in the statically recovered CFG (branch and
    switch targets in block successor sets, calls landing on procedure
    entries, returns matching a shadow call stack).
``metamorphic``
    Observability on/off, stream-fed vs trace-partition-fed replay,
    and preconstruction on/off leave the architectural results
    untouched.
``roundtrip``
    A result survives the content-addressed cache's JSON round trip
    bit-exactly.
``coverage``
    Static-vs-dynamic trace-coverage containment: every trace start
    point the dynamic partition produced is predicted by the static
    trace delimitation (:mod:`repro.static.predictor`), every executed
    pc lies inside the predicted coverage set, and the prediction never
    strays outside static reachability (gross over-approximation).
``simulator``
    Shared-state independence: the point run again on the plan and
    image that two earlier points already ran on agrees exactly with
    its first run — every raw counter and the trace-cache working set
    left resident at end of run.

A capped number of violations per oracle are *described*; the count is
always exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from repro.engine import FunctionalEngine
from repro.isa import INSTRUCTION_BYTES, Kind
from repro.runner.spec import build_frontend_config
from repro.sim import run_frontend
from repro.workloads import WorkloadProfile, generate

#: Described violations per oracle; further ones only count.
MAX_DETAILED_VIOLATIONS = 5


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``detail`` holds only JSON-serialisable scalars so violations can
    ride inside :class:`~repro.runner.spec.RunResult` metrics.
    """

    oracle: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        if not self.detail:
            return f"[{self.oracle}] {self.message}"
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.oracle}] {self.message} ({rendered})"


class _Claims:
    """Collects violations for one oracle with the detail cap applied."""

    def __init__(self, oracle: str) -> None:
        self.oracle = oracle
        self.violations: list[Violation] = []
        self._overflow = 0

    def violate(self, message: str, **detail: Any) -> None:
        if len(self.violations) < MAX_DETAILED_VIOLATIONS:
            self.violations.append(Violation(self.oracle, message, detail))
        else:
            self._overflow += 1

    def equal(self, law: str, left: Any, right: Any, **detail: Any) -> None:
        if left != right:
            self.violate(f"{law}: {left!r} != {right!r}", **detail)

    def no_more_than(self, law: str, small: Any, big: Any,
                     **detail: Any) -> None:
        if small > big:
            self.violate(f"{law}: {small!r} > {big!r}", **detail)

    def done(self) -> list[Violation]:
        if self._overflow:
            self.violations.append(Violation(
                self.oracle,
                f"... and {self._overflow} further violations"))
        return self.violations


class CheckBundle:
    """Lazily-built execution legs of one differential-validation case.

    Everything is a pure function of ``(profile, instructions,
    tc_entries, pb_entries, static_seed, mechanism)``; legs are cached
    so several oracles can share them.
    """

    def __init__(self, profile: WorkloadProfile, instructions: int, *,
                 tc_entries: int = 128, pb_entries: int = 64,
                 static_seed: bool = False,
                 mechanism: str = "preconstruction") -> None:
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        self.profile = profile
        self.instructions = instructions
        self.tc_entries = tc_entries
        self.pb_entries = pb_entries
        self.static_seed = static_seed
        self.mechanism = mechanism

    # -- workload / architectural legs ---------------------------------
    @cached_property
    def workload(self):
        """The generated (verifier-gated) workload."""
        return generate(self.profile)

    @property
    def image(self):
        return self.workload.image

    @cached_property
    def stream(self):
        """The committed stream (first functional run)."""
        return FunctionalEngine(self.image).run(self.instructions)

    @cached_property
    def second_workload(self):
        """An independent regeneration, for the determinism oracle."""
        return generate(self.profile)

    @cached_property
    def second_stream(self):
        """An independent re-execution over the regenerated image."""
        return FunctionalEngine(self.second_workload.image).run(
            self.instructions)

    # -- timing legs ---------------------------------------------------
    @property
    def config(self):
        return build_frontend_config(self.tc_entries, self.pb_entries,
                                     static_seed=self.static_seed,
                                     mechanism=self.mechanism)

    @cached_property
    def traces(self):
        """The stream's trace partition under the standard selection."""
        from repro.trace import traces_of_stream

        return traces_of_stream(self.stream, self.config.selection)

    @property
    def flipped_config(self):
        """The bundle's config with the mechanism toggled the other way."""
        flipped_pb = 0 if self.pb_entries else 64
        return build_frontend_config(self.tc_entries, flipped_pb,
                                     mechanism=self.mechanism)

    @cached_property
    def plan(self):
        """The partition's shared batch plan; every trace-partition-fed
        leg runs on it."""
        from repro.vector import build_plan

        return build_plan(self.traces, self.config)

    @cached_property
    def plain_run(self):
        """Frontend replay, observability off, trace-partition fed."""
        return run_frontend(self.image, self.config, plan=self.plan)

    @cached_property
    def rerun(self):
        """The bundle's config run again on the shared plan and image,
        after :attr:`plain_run` and :attr:`flipped_run` ran there."""
        self.plain_run, self.flipped_run  # run the earlier legs first
        return run_frontend(self.image, self.config, plan=self.plan)

    @cached_property
    def observed_run(self):
        """Frontend replay with the event bus attached.

        Returns ``(FrontendResult, ObsBus)``; the bus carries the
        interval metrics the ``intervals`` oracle audits.
        """
        from repro.obs import NullSink, ObsBus

        bus = ObsBus(NullSink())
        result = run_frontend(self.image, self.config, plan=self.plan,
                              obs=bus)
        return result, bus

    @cached_property
    def stream_fed_run(self):
        """Frontend replay fed record-by-record through the selector."""
        return run_frontend(self.image, self.config, self.instructions,
                            stream=list(self.stream))

    @cached_property
    def flipped_run(self):
        """Frontend replay with the mechanism toggled the other way."""
        return run_frontend(self.image, self.flipped_config, plan=self.plan)

    # -- static legs ---------------------------------------------------
    @cached_property
    def cfg(self):
        from repro.static import recover_cfg

        return recover_cfg(self.image)

    @cached_property
    def prediction(self):
        """Static trace-coverage prediction under the same selection
        config the dynamic partition uses."""
        from repro.static.predictor import predict_coverage

        return predict_coverage(self.image,
                                config=self.config.selection)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def check_determinism(bundle: CheckBundle) -> list[Violation]:
    claims = _Claims("determinism")
    claims.equal("regenerated image digest",
                 bundle.image.digest(), bundle.second_workload.image.digest())
    stream_a, stream_b = bundle.stream, bundle.second_stream
    claims.equal("stream length", len(stream_a), len(stream_b))
    for i, (a, b) in enumerate(zip(stream_a, stream_b)):
        if a != b:
            claims.violate("stream records diverge",
                           index=i, pc_a=a.pc, pc_b=b.pc,
                           next_a=a.next_pc, next_b=b.next_pc)
    return claims.done()


def check_conservation(bundle: CheckBundle) -> list[Violation]:
    claims = _Claims("conservation")
    result = bundle.plain_run
    stats = result.stats

    claims.equal("trace_hits + trace_misses == traces",
                 stats.trace_hits + stats.trace_misses, stats.traces)
    claims.equal("slow_path_traces == trace_misses",
                 stats.slow_path_traces, stats.trace_misses)
    claims.no_more_than("buffer_hits <= trace_hits",
                        stats.buffer_hits, stats.trace_hits)
    claims.equal("next-trace predictions == traces",
                 stats.ntp_correct + stats.ntp_wrong + stats.ntp_none,
                 stats.traces)

    # Instruction supply: every committed instruction arrives via the
    # trace cache or the slow path; the slow path can never supply more
    # than was committed (fetched >= committed, with equality split).
    committed = len(bundle.stream)
    claims.equal("stats.instructions == committed stream length",
                 stats.instructions, committed)
    claims.equal("trace partition covers the stream",
                 sum(len(t) for t in bundle.traces), committed)
    claims.no_more_than("slow_instructions <= instructions",
                        stats.slow_instructions, stats.instructions)
    claims.no_more_than(
        "miss-supplied instructions <= slow instructions",
        stats.slow_instructions_from_misses, stats.slow_instructions)

    # Trace cache: lookups partition into hits + misses, one counted
    # probe per dispatched trace, occupancy bounded by capacity.
    tc_stats = result.trace_cache.stats
    claims.equal("TC hits + misses == lookups",
                 tc_stats.hits + tc_stats.misses, tc_stats.accesses)
    claims.equal("one counted TC lookup per trace",
                 tc_stats.accesses, stats.traces)
    claims.no_more_than("TC occupancy <= capacity",
                        result.trace_cache.occupancy(),
                        result.trace_cache.config.entries)

    # Slow-path memory and predictor counters.
    claims.no_more_than("slow line misses <= accesses",
                        stats.slow_line_misses, stats.slow_line_accesses)
    claims.no_more_than("precon line misses <= accesses",
                        stats.precon_line_misses, stats.precon_line_accesses)
    claims.no_more_than("bimodal mispredictions <= predictions",
                        stats.bimodal_mispredictions,
                        stats.bimodal_predictions)

    # Cycle accounting: every dispatched trace costs at least one
    # cycle; the idle cycles funding preconstruction are a subset.
    claims.no_more_than("traces <= cycles", stats.traces, stats.cycles)
    claims.no_more_than("idle_cycles <= cycles",
                        stats.idle_cycles, stats.cycles)
    return claims.done()


def check_intervals(bundle: CheckBundle) -> list[Violation]:
    claims = _Claims("intervals")
    result, bus = bundle.observed_run
    stats = result.stats
    metrics = bus.metrics
    rows = metrics.interval_rows()

    def bucket_sum(counter: str) -> int:
        return sum(row[counter] for row in rows)

    for counter, total in (
            ("traces", stats.traces),
            ("instructions", stats.instructions),
            ("trace_hits", stats.trace_hits),
            ("trace_misses", stats.trace_misses),
            ("buffer_hits", stats.buffer_hits),
            ("idle_cycles", stats.idle_cycles)):
        claims.equal(f"interval buckets sum to total {counter}",
                     bucket_sum(counter), total)

    hist = metrics.trace_length
    claims.equal("trace_length histogram mass == traces",
                 hist.total, stats.traces)
    claims.equal("trace_length histogram weight == instructions",
                 sum(v * c for v, c in hist.counts.items()),
                 stats.instructions)
    idle = metrics.idle_burst_length
    claims.equal("idle_burst histogram weight == idle_cycles",
                 sum(v * c for v, c in idle.counts.items()),
                 stats.idle_cycles)
    return claims.done()


def check_cfg(bundle: CheckBundle) -> list[Violation]:
    claims = _Claims("cfg")
    cfg = bundle.cfg
    entries = {proc.start for proc in cfg.procedures}
    shadow_stack: list[int] = []
    for index, record in enumerate(bundle.stream):
        inst = record.inst
        pc, next_pc = record.pc, record.next_pc
        block = cfg.block_at(pc)
        if block is None:
            claims.violate("executed pc not covered by any recovered block",
                           index=index, pc=pc)
            continue
        kind = inst.kind
        if kind is Kind.BRANCH or kind is Kind.JUMP:
            terminator = block.end - INSTRUCTION_BYTES
            if pc != terminator:
                claims.violate(
                    "control transfer is not a recovered block terminator",
                    index=index, pc=pc, block_start=block.start,
                    block_end=block.end)
            elif next_pc not in block.successors:
                claims.violate("executed edge missing from recovered CFG",
                               index=index, pc=pc, next_pc=next_pc,
                               successors=list(block.successors))
        elif kind is Kind.CALL or kind is Kind.CALL_INDIRECT:
            shadow_stack.append(pc + INSTRUCTION_BYTES)
            if next_pc not in entries:
                claims.violate("call target is not a procedure entry",
                               index=index, pc=pc, next_pc=next_pc)
        elif kind is Kind.JUMP_INDIRECT:
            if inst.is_return:
                if not shadow_stack:
                    claims.violate("return with empty shadow call stack",
                                   index=index, pc=pc, next_pc=next_pc)
                elif next_pc != shadow_stack[-1]:
                    claims.violate("return does not match shadow call stack",
                                   index=index, pc=pc, next_pc=next_pc,
                                   expected=shadow_stack[-1])
                    shadow_stack.pop()
                else:
                    shadow_stack.pop()
            else:
                terminator = block.end - INSTRUCTION_BYTES
                if pc != terminator:
                    claims.violate(
                        "switch is not a recovered block terminator",
                        index=index, pc=pc, block_start=block.start)
                elif next_pc not in block.successors:
                    claims.violate(
                        "executed switch edge missing from recovered CFG",
                        index=index, pc=pc, next_pc=next_pc,
                        successors=list(block.successors))
    return claims.done()


def check_metamorphic(bundle: CheckBundle) -> list[Violation]:
    claims = _Claims("metamorphic")
    plain = bundle.plain_run.stats.summary()
    observed = bundle.observed_run[0].stats.summary()
    stream_fed = bundle.stream_fed_run.stats.summary()
    for key in plain:
        claims.equal(f"obs-on == obs-off for {key}",
                     observed.get(key), plain[key])
        claims.equal(f"stream-fed == trace-partition-fed for {key}",
                     stream_fed.get(key), plain[key])
    # The frontend mechanism changes timing, never architecture: the
    # committed instruction count and the trace partition are invariant.
    flipped = bundle.flipped_run.stats
    claims.equal("instructions invariant under mechanism flip",
                 flipped.instructions, bundle.plain_run.stats.instructions)
    claims.equal("trace count invariant under mechanism flip",
                 flipped.traces, bundle.plain_run.stats.traces)
    return claims.done()


def check_roundtrip(bundle: CheckBundle) -> list[Violation]:
    import tempfile

    from repro.runner import ExperimentSpec, ResultCache, RunResult

    claims = _Claims("roundtrip")
    spec = ExperimentSpec(benchmark=bundle.profile.name,
                          tc_entries=bundle.tc_entries,
                          pb_entries=bundle.pb_entries,
                          instructions=bundle.instructions)
    metrics = dict(bundle.plain_run.stats.summary())
    result = RunResult(spec=spec, metrics=metrics)
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        cache = ResultCache(root)
        cache.put(spec, result)
        loaded = cache.get(spec)
    if loaded is None:
        claims.violate("stored result not served back from the cache")
        return claims.done()
    claims.equal("cached metrics survive the JSON round trip",
                 loaded.metrics, metrics)
    claims.equal("cached spec identity", loaded.spec, spec)
    return claims.done()


def check_coverage(bundle: CheckBundle) -> list[Violation]:
    """Static trace delimitation contains the dynamic behaviour.

    The predictor walks every statically reachable delimitation path,
    so — when its exploration completed within budget — the dynamic
    run can never produce a trace start point or execute an
    instruction the prediction missed (the truncation/leftover rebase
    argument in DESIGN.md §13).  The reverse direction guards against
    gross over-approximation: predicted coverage must stay inside the
    conservative static reachability set (it is usually *smaller*,
    since data-scan indirect targets pull dead procedures into the
    reachable set, so no lower bound on the ratio is asserted).
    """
    claims = _Claims("coverage")
    prediction = bundle.prediction
    if not prediction.complete:
        # Exploration budget exhausted: containment is not guaranteed,
        # and an incomplete prediction on the small images the checker
        # drives is itself suspicious.
        claims.violate("static coverage prediction incomplete "
                       "(state budget exhausted)",
                       states=prediction.states_explored)
        return claims.done()

    seen_starts: set[int] = set()
    for index, trace in enumerate(bundle.traces):
        start = trace.start_pc
        if start in seen_starts:
            continue
        seen_starts.add(start)
        if not prediction.predicts_start(start):
            claims.violate("dynamic trace start not statically predicted",
                           index=index, start_pc=start)

    executed = {record.pc for record in bundle.stream}
    for pc in sorted(executed):
        if not prediction.covers(pc):
            claims.violate("executed pc outside predicted coverage",
                           pc=pc)

    stray = prediction.covered_pcs - prediction.live_pcs
    claims.equal("predicted coverage within static reachability",
                 len(stray), 0,
                 sample=sorted(stray)[:MAX_DETAILED_VIOLATIONS])
    return claims.done()


def check_simulator(bundle: CheckBundle) -> list[Violation]:
    """A point's results do not depend on the points run before it.

    The runner shares a stream partition's plan
    (:meth:`~repro.runner.StreamCache.plan`) and the image's
    walk-script store between points.  :attr:`CheckBundle.rerun` runs
    the bundle's config after :attr:`~CheckBundle.plain_run` and
    :attr:`~CheckBundle.flipped_run` used both; it must equal the
    plain run in the full raw counter record (every
    :class:`FrontendStats` field, not just the summary) and the
    trace-cache working set left resident at end of run.

    The name predates this definition (the oracle once compared two
    frontend kernels).  It stays because verdict metrics are keyed by
    oracle name (``oracle_simulator_violations``) and pinned fuzz
    verdict digests include that key.
    """
    import dataclasses

    claims = _Claims("simulator")
    first = bundle.plain_run
    rerun = bundle.rerun
    first_stats = dataclasses.asdict(first.stats)
    rerun_stats = dataclasses.asdict(rerun.stats)
    for field_name in sorted(first_stats):
        claims.equal(f"stats.{field_name} rerun == first",
                     rerun_stats.get(field_name), first_stats[field_name])

    claims.equal("trace-cache working set rerun == first",
                 [t.trace_id for t in rerun.trace_cache.resident_traces()],
                 [t.trace_id for t in first.trace_cache.resident_traces()])
    claims.equal("trace-cache occupancy rerun == first",
                 rerun.trace_cache.occupancy(),
                 first.trace_cache.occupancy())
    return claims.done()


#: The pluggable oracle registry, in evaluation order.
ORACLES: dict[str, Callable[[CheckBundle], list[Violation]]] = {
    "determinism": check_determinism,
    "conservation": check_conservation,
    "intervals": check_intervals,
    "cfg": check_cfg,
    "metamorphic": check_metamorphic,
    "roundtrip": check_roundtrip,
    "coverage": check_coverage,
    "simulator": check_simulator,
}


def oracle_names() -> tuple[str, ...]:
    """Every registered oracle, in evaluation order."""
    return tuple(ORACLES)
