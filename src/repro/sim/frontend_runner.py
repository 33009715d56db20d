"""The frontend timing simulation (trace-driven).

Replays a committed dynamic instruction stream through the trace
processor's frontend:

1. the stream is partitioned into traces by the selection rules;
2. for each needed trace, the next-trace predictor is consulted and the
   trace cache is probed (plus the configured frontend mechanism's
   side storage — preconstruction buffers, for the paper's mechanism);
3. a present, correctly-predicted trace costs one fetch cycle and the
   backend paces consumption (``retire_ipc``), leaving the slow path
   idle — those idle cycles fund the frontend mechanism;
4. an absent trace is fetched from the instruction cache over the slow
   path (``fetch_width`` per cycle plus miss latencies), constructed by
   the fill unit, and installed in the trace cache.

The next-trace predictor and the bimodal table are trained only by the
committed path, so their evolution, and every per-occurrence trace
feature, is the same at every point over one stream partition: it is
computed once per partition as a :class:`~repro.vector.BatchPlan`, and
:meth:`FrontendSimulation._dispatch`, the one dispatch loop, keeps only
the point's own caches, mechanism and counters.

The fill/prefetch mechanism occupying the seam is pluggable
(:mod:`repro.frontends`): trace preconstruction, MANA-style
record-replay prefetching, program-map traversal, or next-N-line —
selected by ``FrontendConfig.mechanism``.

This is the trace-driven approximation described in DESIGN.md: the
committed path is exact; wrong-path fetch is approximated by resolution
penalties.  It produces every metric in the paper's Figure 5 and
Tables 1-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Iterable, Optional, Sequence,
                    Union)

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import PreconstructionEngine
from repro.engine import FunctionalEngine, Stream, StreamRecord
from repro.frontends import (
    FrontendMechanism,
    MechanismContext,
    create_mechanism,
)
from repro.program import ProgramImage
from repro.sim.config import FrontendConfig
from repro.sim.stats import FrontendStats
from repro.trace import MAX_TRACE_LENGTH, Trace, TraceCache, traces_of_stream
from repro.vector.plan import NTP_WRONG, BatchPlan, build_plan

if TYPE_CHECKING:
    from repro.obs.events import ObsBus
    from repro.sim.dynamic_partition import (
        DynamicPartitionConfig,
        PartitionEvent,
    )


def retire_pace_table(retire_ipc: float,
                      max_length: int = MAX_TRACE_LENGTH) -> tuple[int, ...]:
    """Cycles the backend needs to consume a trace of each length.

    ``table[n]`` is the pace for an ``n``-instruction trace: ceiling
    division of the length by the sustained retire rate, floored at the
    single trace-cache fetch cycle.  Ceiling, not ``round`` — banker's
    rounding made a 15-instruction trace at ``retire_ipc=2.5`` cost the
    same 6 cycles as a 16-instruction one, undercharging any trace
    whose drain time lands on .5 (and crediting too many idle cycles to
    preconstruction).
    """
    return tuple(max(1, math.ceil(n / retire_ipc))
                 for n in range(max_length + 1))


@dataclass
class FrontendResult:
    """Everything a caller may want after a frontend run."""

    config: FrontendConfig
    stats: FrontendStats
    trace_cache: TraceCache
    preconstruction: Optional[PreconstructionEngine]
    icache: InstructionCache
    #: The mechanism instance that occupied the seam (``None`` for the
    #: bare baseline).  For ``mechanism="preconstruction"`` its engine
    #: is also exposed via :attr:`preconstruction` (compatibility).
    mechanism: Optional[FrontendMechanism] = None
    #: Epoch decisions of the adaptive-partition controller; ``None``
    #: unless the run was driven with a ``partition`` config.
    partition_events: Optional[list["PartitionEvent"]] = None


class FrontendSimulation:
    """One frontend point: its caches, mechanism and counters.

    :meth:`run` replays one stream through the point with
    :meth:`_dispatch`, the one frontend dispatch loop.
    """

    #: Per-occurrence hook, called after each dispatched trace (the
    #: dynamic-partition controller's epoch step); ``None`` for a fixed
    #: geometry.  A class attribute, so a subclass overrides it with a
    #: method and the instance holds no reference to itself.
    after_trace: Optional[Callable[[], None]] = None

    def __init__(self, image: ProgramImage, config: FrontendConfig,
                 obs: Optional["ObsBus"] = None) -> None:
        self.image = image
        self.config = config
        self.stats = FrontendStats()
        #: Optional :class:`repro.obs.ObsBus`.  The dispatch loop owns
        #: the event clock: it advances ``obs.now`` to the frontend cycle
        #: count, so engine/buffer/trace-cache events share one cycle
        #: domain.  ``None`` (the default) keeps every site a single
        #: dead branch on the hot path.
        self.obs = obs
        self.icache = InstructionCache(config.icache)
        self.trace_cache = TraceCache(config.trace_cache)
        if obs is not None:
            self.trace_cache.obs = obs
        #: The slow-path bimodal table mechanisms read bias from.  Its
        #: only writer is the dispatch loop's per-occurrence training.
        self.bimodal = BimodalPredictor(entries=config.bimodal_entries)
        self.mechanism: Optional[FrontendMechanism] = create_mechanism(
            config.mechanism,
            MechanismContext(
                image=image, icache=self.icache, bimodal=self.bimodal,
                trace_cache=self.trace_cache, selection=config.selection,
                budget_entries=config.mechanism_entries,
                static_seed=config.static_seed,
                preconstruction=config.preconstruction))
        #: The preconstruction engine, when that is the configured
        #: mechanism — kept as a direct attribute because the
        #: dynamic-partition extension repartitions its buffers.
        self.precon: Optional[PreconstructionEngine] = getattr(
            self.mechanism, "engine", None)
        if obs is not None and self.mechanism is not None:
            self.mechanism.attach_obs(obs)

    # ------------------------------------------------------------------
    def run(self, stream: Union[Stream, Iterable[StreamRecord]] = (),
            traces: Optional[Sequence[Trace]] = None,
            plan: Optional[BatchPlan] = None) -> FrontendResult:
        """Replay one stream through this point.

        ``plan`` is the stream partition's shared precomputation (see
        :meth:`~repro.runner.StreamCache.plan`); ``traces`` its trace
        partition (:meth:`~repro.runner.StreamCache.traces`), from
        which a plan is built; with neither, ``stream`` (a
        :class:`~repro.engine.Stream`, or records packed into one) is
        partitioned here.  A simulation replays one stream only.
        """
        if self.stats.traces:
            raise RuntimeError("a FrontendSimulation replays one stream; "
                               "build a new one for the next")
        if plan is None:
            if traces is None:
                traces = traces_of_stream(stream, self.config.selection)
            plan = build_plan(traces, self.config)
        self._dispatch(plan)
        return self.result()

    def result(self) -> FrontendResult:
        return FrontendResult(config=self.config, stats=self.stats,
                              trace_cache=self.trace_cache,
                              preconstruction=self.precon,
                              icache=self.icache,
                              mechanism=self.mechanism,
                              partition_events=getattr(self, "events", None))

    # ------------------------------------------------------------------
    def _slow_path(self, trace: Trace, plan: BatchPlan, t: int) -> int:
        """Fetch occurrence ``t`` (``trace``) via the I-cache; build and
        install the trace.  Returns the cycles consumed."""
        stats = self.stats
        stats.slow_path_traces += 1
        length = plan.length[t]
        cycles = -(-length // self.config.fetch_width)  # ceil division
        fetch_line = self.icache.fetch_line
        for run_line, run_count in plan.line_runs[t]:
            latency, missed = fetch_line(run_line, "slow_path",
                                         instructions=run_count)
            stats.slow_line_accesses += 1
            if missed:
                stats.slow_line_misses += 1
                stats.slow_instructions_from_misses += run_count
                cycles += latency
        stats.slow_instructions += length
        # The slow path consults the bimodal predictor per conditional
        # branch; the plan replayed those predictions once.
        branches = plan.n_branches[t]
        if branches:
            mispredicted = plan.n_mispredicts[t]
            cycles += mispredicted * self.config.branch_mispredict_penalty
            stats.bimodal_predictions += branches
            stats.bimodal_mispredictions += mispredicted
        # Fill unit installs the newly built trace (never the partial
        # end-of-stream tail — its identity may collide).
        if not trace.partial:
            self.trace_cache.insert(trace)
        return cycles

    def _finish(self, plan: BatchPlan) -> None:
        """Point-independent totals and end-of-run mirrors."""
        stats = self.stats
        stats.ntp_none = plan.ntp_none
        stats.ntp_correct = plan.ntp_correct
        stats.ntp_wrong = plan.ntp_wrong
        # Table 2's mechanism-side I-cache traffic, whatever client name
        # the mechanism fetches under.
        client = (self.mechanism.icache_client
                  if self.mechanism is not None else "preconstruct")
        traffic = self.icache.traffic.get(client)
        if traffic is not None:
            stats.precon_line_accesses = traffic.lines_accessed
            stats.precon_line_misses = traffic.misses

    def _dispatch(self, plan: BatchPlan) -> None:
        """Dispatch every occurrence of ``plan`` through this point.

        At occurrence *t* the point first dispatches (mechanisms may
        read the bimodal table's bias), then the occurrence's training
        updates are applied.  ``after_trace`` may rebuild the trace
        cache, so ``self.trace_cache`` is read per occurrence.
        """
        why = plan.compatible_with(self.config)
        if why is not None:
            raise ValueError(f"config cannot run on this plan: {why}")
        stats = self.stats
        mechanism = self.mechanism
        precon = self.precon
        obs = self.obs
        obs_bucket = -1
        after_trace = self.after_trace
        slow_path = self._slow_path
        mispredict_penalty = self.config.trace_mispredict_penalty
        # Pace of backend-paced consumption, precomputed per length.
        pace_of = retire_pace_table(self.config.retire_ipc,
                                    self.config.selection.max_length)
        length = plan.length
        ntp_code = plan.ntp_code
        n_branches = plan.n_branches
        all_pairs = plan.pairs
        bimodal_update = self.bimodal.update

        for t, trace in enumerate(plan.traces):
            trace_id = trace.trace_id
            n = length[t]
            if obs:
                obs.now = stats.cycles
            stats.traces += 1
            stats.instructions += n

            present = self.trace_cache.lookup(trace_id) is not None
            buffer_hit = False
            if not present and mechanism is not None:
                buffer_hit = mechanism.probe(trace_id)
                if buffer_hit:
                    present = True
                    stats.buffer_hits += 1

            idle_cycles = 0
            cycles = 0
            if ntp_code[t] == NTP_WRONG:
                # Wrong next-trace prediction: resolution penalty during
                # which the slow-path fetch hardware sits idle.
                cycles = idle_cycles = mispredict_penalty

            if present:
                stats.trace_hits += 1
                # Backend-paced consumption: the window drains at
                # retire_ipc, so the slow path idles while the trace
                # cache supplies.
                pace = pace_of[n]
                cycles += pace
                idle_cycles += pace
            else:
                stats.trace_misses += 1
                if mechanism is not None:
                    mechanism.on_slow_path(trace)
                cycles += slow_path(trace, plan, t)

            if obs:
                if present:
                    obs.emit("frontend", "trace_hit", pc=trace_id.start_pc,
                             len=n, buffer=buffer_hit)
                else:
                    obs.emit("frontend", "trace_miss",
                             pc=trace_id.start_pc, len=n)
                obs.metrics.on_trace(obs.now, n, present, buffer_hit)

            stats.cycles += cycles
            if mechanism is not None:
                stats.idle_cycles += idle_cycles
                mechanism.observe_dispatch(trace)
                if idle_cycles:
                    if obs:
                        # The idle span is the tail of this trace's
                        # cycles: stamp engine work at the burst start so
                        # region / construction events land inside the
                        # burst slice.
                        obs.now = stats.cycles - idle_cycles
                        obs.emit("frontend", "idle_burst_start",
                                 len=idle_cycles)
                        obs.metrics.on_idle_burst(obs.now, idle_cycles)
                    mechanism.tick(idle_cycles)
                    if obs:
                        obs.now = stats.cycles
                        obs.emit("frontend", "idle_burst_end",
                                 len=idle_cycles)
                if obs and precon is not None:
                    bucket = stats.cycles // obs.metrics.bucket_cycles
                    if bucket != obs_bucket:
                        obs_bucket = bucket
                        obs.metrics.on_buffer_occupancy(
                            precon.buffers.occupancy())
            if after_trace is not None:
                after_trace()

            # Occurrence t's training, after the point dispatched it.
            if n_branches[t]:
                for pc, taken in all_pairs[t]:
                    bimodal_update(pc, taken)

        self._finish(plan)


def run_frontend(image: ProgramImage, config: FrontendConfig,
                 max_instructions: Optional[int] = None,
                 stream: Union[Stream, Sequence[StreamRecord], None] = None,
                 traces: Optional[list[Trace]] = None,
                 obs: Optional["ObsBus"] = None, *,
                 mechanism: Optional[str] = None,
                 partition: Optional["DynamicPartitionConfig"] = None,
                 plan: Optional[BatchPlan] = None) -> FrontendResult:
    """The one frontend entry point.

    Executes ``image`` functionally (or reuses a precomputed ``stream``
    / its trace partition ``traces`` / that partition's shared ``plan``)
    and replays it through the frontend.  ``obs`` attaches an event bus
    (:class:`repro.obs.ObsBus`) for cycle-domain tracing.

    ``mechanism`` overrides ``config.mechanism`` at the same storage
    budget (see :meth:`FrontendConfig.with_mechanism`).  ``partition``
    switches to the adaptive trace-storage-partition frontend (the
    dynamic extension); its epoch decisions come back as
    ``result.partition_events``.
    """
    if mechanism is not None:
        config = config.with_mechanism(mechanism)
    if partition is not None:
        from repro.sim.dynamic_partition import DynamicPartitionFrontend
        if obs is not None:
            raise ValueError("partitioned runs do not support obs")
        simulation: FrontendSimulation = DynamicPartitionFrontend(
            image, config, partition)
    else:
        simulation = FrontendSimulation(image, config, obs=obs)
    if plan is not None or traces is not None:
        return simulation.run(traces=traces, plan=plan)
    if stream is None:
        if max_instructions is None:
            raise ValueError("need max_instructions when no stream/traces "
                             "are supplied")
        stream = FunctionalEngine(image).run(max_instructions)
    elif max_instructions is not None:
        stream = stream[:max_instructions]
    return simulation.run(stream)
