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
the point's own caches, mechanism and counters.  Those, the plan
set-up and the slow path live in :class:`FrontendPoint`, which
:class:`repro.processor.ProcessorSimulation` extends too.

The fill/prefetch mechanism occupying the seam is pluggable
(:mod:`repro.frontends`): trace preconstruction, MANA-style
record-replay prefetching, program-map traversal, or next-N-line —
selected by ``FrontendConfig.mechanism`` and sized by
``FrontendConfig.mechanism_budget``.

This is the trace-driven approximation described in DESIGN.md: the
committed path is exact; wrong-path fetch is approximated by resolution
penalties.  It produces every metric in the paper's Figure 5 and
Tables 1-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Iterable, Optional, Protocol,
                    Sequence, Union)

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.engine import FunctionalEngine, Stream, StreamRecord
from repro.frontends import (
    FrontendMechanism,
    MechanismContext,
    PreconstructionMechanism,
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


def retire_pace_table(retire_ipc: float) -> tuple[int, ...]:
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
                 for n in range(MAX_TRACE_LENGTH + 1))


@dataclass
class FrontendResult:
    """Everything a caller may want after a frontend run."""

    config: FrontendConfig
    stats: FrontendStats
    trace_cache: TraceCache
    preconstruction: Optional[PreconstructionMechanism]
    icache: InstructionCache
    #: The mechanism instance that occupied the seam (``None`` for the
    #: bare baseline); the same object as :attr:`preconstruction` when
    #: that is the paper's engine.
    mechanism: Optional[FrontendMechanism] = None
    #: Epoch decisions of the adaptive-partition controller; ``None``
    #: unless the run was driven with a ``partition`` config.
    partition_events: Optional[list["PartitionEvent"]] = None


class _PointStats(Protocol):
    """The counters :class:`FrontendPoint` itself advances."""

    traces: int
    slow_path_traces: int


class FrontendPoint:
    """One point's frontend, shared by both timing models.

    The per-point structures, :meth:`_plan` and :meth:`_slow_path`;
    :class:`FrontendSimulation` (Figure 5, Tables 1-3) and
    :class:`~repro.processor.ProcessorSimulation` (Figures 6 and 8)
    each add a dispatch loop.
    """

    def __init__(self, image: ProgramImage, front: FrontendConfig,
                 stats: _PointStats,
                 obs: Optional["ObsBus"] = None) -> None:
        self.image = image
        self.front = front
        self.stats = stats
        #: Optional :class:`repro.obs.ObsBus`.  The dispatch loop owns
        #: the event clock: it advances ``obs.now`` to the frontend cycle
        #: count, so engine/buffer/trace-cache events share one cycle
        #: domain.  ``None`` (the default) keeps every site a single
        #: dead branch on the hot path.
        self.obs = obs
        self.icache = InstructionCache(front.icache)
        self.trace_cache = TraceCache(front.trace_cache)
        #: The slow-path bimodal table the preconstruction engine reads
        #: bias from.  Its only writer is the dispatch loops' training,
        #: which runs only when that engine exists.
        self.bimodal = BimodalPredictor(entries=front.bimodal_entries)
        self.mechanism: Optional[FrontendMechanism] = create_mechanism(
            front.mechanism,
            MechanismContext(
                image=image, icache=self.icache, bimodal=self.bimodal,
                trace_cache=self.trace_cache, selection=front.selection,
                budget_entries=front.mechanism_budget,
                static_seed=front.static_seed,
                preconstruction=front.preconstruction))
        #: The mechanism again when it is the preconstruction engine,
        #: the bimodal table's only reader; the dynamic-partition
        #: extension repartitions its buffers.
        self.precon: Optional[PreconstructionMechanism] = (
            self.mechanism
            if isinstance(self.mechanism, PreconstructionMechanism)
            else None)
        if obs is not None:
            self.trace_cache.obs = obs
            if self.mechanism is not None:
                self.mechanism.attach_obs(obs)

    def _plan(self, stream: Union[Stream, Iterable[StreamRecord]] = (),
              traces: Optional[Sequence[Trace]] = None,
              plan: Optional[BatchPlan] = None) -> BatchPlan:
        """The plan to replay: ``plan`` checked against this point's
        config, or one built from ``traces`` (``stream`` partitioned
        here when neither is given).  A point replays one stream only.
        """
        if self.stats.traces:
            raise RuntimeError(f"a {type(self).__name__} replays one "
                               "stream; build a new one for the next")
        if plan is None:
            if traces is None:
                traces = traces_of_stream(stream, self.front.selection)
            return build_plan(traces, self.front)
        why = plan.compatible_with(self.front)
        if why is not None:
            raise ValueError(f"config cannot run on this plan: {why}")
        return plan

    def _slow_path(self, plan: BatchPlan, t: int) -> int:
        """Fetch occurrence ``t`` over the slow path; its cycles.

        ``fetch_width`` instructions per cycle, plus each line miss's
        latency, plus the penalty of each bimodal misprediction (the
        plan replayed those predictions once).  The caller installs the
        built trace.
        """
        self.stats.slow_path_traces += 1
        front = self.front
        cycles = (-(-plan.length[t] // front.fetch_width)
                  + plan.n_mispredicts[t] * front.branch_mispredict_penalty)
        fetch_line = self.icache.fetch_line
        for line, count in plan.line_runs[t]:
            latency, missed = fetch_line(line, "slow_path",
                                         instructions=count)
            if missed:
                cycles += latency
        return cycles


class FrontendSimulation(FrontendPoint):
    """One frontend point: its caches, mechanism and counters.

    :meth:`run` replays one stream through the point with
    :meth:`_dispatch`, the one frontend dispatch loop.
    """

    stats: FrontendStats

    #: Per-occurrence hook, called after each dispatched trace (the
    #: dynamic-partition controller's epoch step); ``None`` for a fixed
    #: geometry.  A class attribute, so a subclass overrides it with a
    #: method and the instance holds no reference to itself.
    after_trace: Optional[Callable[[], None]] = None

    def __init__(self, image: ProgramImage, config: FrontendConfig,
                 obs: Optional["ObsBus"] = None) -> None:
        super().__init__(image, config, FrontendStats(), obs)
        self.config = config

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
        partitioned here.
        """
        self._dispatch(self._plan(stream, traces, plan))
        return self.result()

    def result(self) -> FrontendResult:
        return FrontendResult(config=self.config, stats=self.stats,
                              trace_cache=self.trace_cache,
                              preconstruction=self.precon,
                              icache=self.icache,
                              mechanism=self.mechanism,
                              partition_events=getattr(self, "events", None))

    # ------------------------------------------------------------------
    def _finish(self, plan: BatchPlan) -> None:
        """Point-independent totals and the I-cache's traffic records."""
        stats = self.stats
        stats.ntp_none = plan.ntp_none
        stats.ntp_correct = plan.ntp_correct
        stats.ntp_wrong = plan.ntp_wrong
        traffic = self.icache.traffic
        slow = traffic.get("slow_path")
        if slow is not None:
            stats.slow_instructions = slow.instructions_supplied
            stats.slow_instructions_from_misses = \
                slow.instructions_from_misses
            stats.slow_line_accesses = slow.lines_accessed
            stats.slow_line_misses = slow.misses
        # Table 2's mechanism-side I-cache traffic, whatever client name
        # the mechanism fetches under.
        client = (self.mechanism.icache_client
                  if self.mechanism is not None else "preconstruct")
        mechanism_side = traffic.get(client)
        if mechanism_side is not None:
            stats.precon_line_accesses = mechanism_side.lines_accessed
            stats.precon_line_misses = mechanism_side.misses

    def _dispatch(self, plan: BatchPlan) -> None:
        """Dispatch every occurrence of ``plan`` through this point.

        At occurrence *t* the point first dispatches (mechanisms may
        read the bimodal table's bias), then the occurrence's training
        updates are applied.  ``after_trace`` may rebuild the trace
        cache, so ``self.trace_cache`` is read per occurrence.
        """
        stats = self.stats
        mechanism = self.mechanism
        precon = self.precon
        obs = self.obs
        obs_bucket = -1
        after_trace = self.after_trace
        slow_path = self._slow_path
        mispredict_penalty = self.config.trace_mispredict_penalty
        # Pace of backend-paced consumption, precomputed per length.
        pace_of = retire_pace_table(self.config.retire_ipc)
        length = plan.length
        ntp_code = plan.ntp_code
        n_branches = plan.n_branches
        n_mispredicts = plan.n_mispredicts
        all_pairs = plan.pairs
        # The bimodal table's only reader is the preconstruction engine.
        train = precon is not None
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
                cycles += slow_path(plan, t)
                stats.bimodal_predictions += n_branches[t]
                stats.bimodal_mispredictions += n_mispredicts[t]
                # Fill unit installs the newly built trace (never the
                # partial end-of-stream tail — its identity may collide).
                if not trace.partial:
                    self.trace_cache.insert(trace)

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
            if train:
                for pc, taken in all_pairs[t]:
                    bimodal_update(pc, taken)

        self._finish(plan)


def run_frontend(image: ProgramImage, config: FrontendConfig,
                 max_instructions: Optional[int] = None,
                 stream: Union[Stream, Sequence[StreamRecord], None] = None,
                 traces: Optional[list[Trace]] = None,
                 obs: Optional["ObsBus"] = None, *,
                 partition: Optional["DynamicPartitionConfig"] = None,
                 plan: Optional[BatchPlan] = None) -> FrontendResult:
    """The one frontend entry point.

    Executes ``image`` functionally (or reuses a precomputed ``stream``
    / its trace partition ``traces`` / that partition's shared ``plan``)
    and replays it through the frontend.  ``obs`` attaches an event bus
    (:class:`repro.obs.ObsBus`) for cycle-domain tracing.

    ``partition`` switches to the adaptive trace-storage-partition
    frontend (the dynamic extension), which starts from ``config``'s
    split; its epoch decisions come back as ``result.partition_events``.
    """
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
