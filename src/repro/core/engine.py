"""The trace preconstruction engine (the paper's core contribution).

Orchestrates everything in §2-§3:

* **Dispatch monitoring** — scans every dispatched trace for the two
  region cues: a call pushes the return point (the instruction after
  the call), a taken backward branch pushes the loop fall-through
  (exit) point.  Start points the processor reaches are removed.
* **Region management** — when one of the four prefetch caches is
  free, the newest start point is popped from the start-point stack and
  becomes a new region (unless that region completed recently).
  Regions are abandoned when the processor catches up to their code.
* **Construction scheduling** — four constructors take start points
  from the highest-priority active region's worklist and are metered
  by the processor's *idle* slow-path cycles: each idle cycle funds one
  decode step per constructor, and line fetches serialise on the single
  shared I-cache port.
* **Buffer management** — completed traces are deduplicated against
  the trace cache and the preconstruction buffers before allocation;
  an allocation failure (set full of same-region traces) bounds the
  region's effort.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache, PrefetchCache
from repro.core.precon_buffers import PreconstructionBuffers
from repro.core.preconstructor import (
    ConstructorConfig,
    StepResult,
    TraceConstructor,
)
from repro.core.region import Region, RegionState
from repro.core.start_stack import StartPointStack
from repro.isa import INSTRUCTION_BYTES
from repro.program import ProgramImage
from repro.trace import SelectionConfig, Trace, TraceCache, TraceID


@dataclass(frozen=True)
class PreconstructionConfig:
    """Hardware parameters of the preconstruction mechanism (§3, §4.1).

    The buffers' size is not among them: it is the point's storage
    budget (``FrontendConfig.mechanism_budget``), the one currency every
    mechanism is sized in.
    """

    buffer_ways: int = 2
    num_constructors: int = 4
    num_prefetch_caches: int = 4
    prefetch_cache_instructions: int = 256
    start_stack_depth: int = 16
    completed_memory: int = 4
    buffer_failure_limit: int = 1
    max_start_points_per_region: int = 64
    stack_order: str = "newest_first"
    constructor: ConstructorConfig = field(default_factory=ConstructorConfig)

    def __post_init__(self) -> None:
        if self.stack_order not in ("newest_first", "oldest_first"):
            raise ValueError(f"unknown stack_order {self.stack_order!r}")


@dataclass
class PreconstructionStats:
    """Engine-level accounting."""

    regions_started: int = 0
    regions_completed: int = 0
    regions_abandoned: int = 0
    regions_fetch_bound: int = 0
    regions_buffer_bound: int = 0
    traces_constructed: int = 0
    traces_duplicate: int = 0
    buffer_hits: int = 0
    idle_cycles_offered: int = 0
    decode_steps: int = 0
    port_cycles_used: int = 0
    port_overdraft_carried: int = 0
    static_seeds_offered: int = 0


def _cue_ends(trace: Trace) -> tuple[int, ...]:
    """Where ``trace``'s pcs split after each start-point cue.

    Each entry is the index one past a call or a taken backward
    branch; that instruction pushes the start point after it.  The
    stack only shrinks between two cues, so a stretch of pcs that
    misses the stack on entry reaches none of its points.  A trace
    with no cue maps to the empty tuple, which every such trace
    shares.
    """
    ends: list[int] = []
    outcomes = iter(trace.trace_id.outcomes)
    for end, inst in enumerate(trace.instructions, 1):
        if inst.is_call or (inst.is_conditional_branch
                            and next(outcomes) and inst.is_backward):
            ends.append(end)
    return tuple(ends)


def region_priority(regions_by_seq: dict[int, Region]
                    ) -> Callable[[int], tuple[int, int]]:
    """The region priority the buffer replacement policy sees: active
    regions beat past ones, and the more recent region wins.

    ``regions_by_seq`` holds exactly the active regions.

    A function over the engine's region map rather than a bound method,
    so the buffers hold no reference back to the engine and a finished
    point's state is freed by reference counting alone.
    """
    def priority(seq: int) -> tuple[int, int]:
        return (1, seq) if seq in regions_by_seq else (0, seq)
    return priority


class PreconstructionEngine:
    """Preconstruction mechanism attached to a trace-processor frontend.

    ``buffer_entries`` sizes the preconstruction buffers, in 64-byte
    trace entries.
    """

    def __init__(self, image: ProgramImage, icache: InstructionCache,
                 bimodal: BimodalPredictor, trace_cache: TraceCache,
                 buffer_entries: int,
                 config: PreconstructionConfig | None = None,
                 selection: SelectionConfig | None = None,
                 static_seeds: Sequence[int] | None = None) -> None:
        self.image = image
        self.icache = icache
        self.bimodal = bimodal
        self.trace_cache = trace_cache
        self.config = config or PreconstructionConfig()
        self.selection = selection or SelectionConfig()
        cfg = self.config

        self.stack = StartPointStack(depth=cfg.start_stack_depth,
                                     completed_memory=cfg.completed_memory)
        #: The active regions by seq; a finished region leaves it.
        self._regions_by_seq: dict[int, Region] = {}
        self.buffers = PreconstructionBuffers(
            entries=buffer_entries, ways=cfg.buffer_ways,
            priority_fn=region_priority(self._regions_by_seq))
        self._free_prefetch: list[PrefetchCache] = [
            PrefetchCache(cfg.prefetch_cache_instructions)
            for _ in range(cfg.num_prefetch_caches)]
        self.constructors = [
            TraceConstructor(image, icache, bimodal, self.selection,
                             cfg.constructor)
            for _ in range(cfg.num_constructors)]
        for cid, constructor in enumerate(self.constructors):
            constructor.cid = cid
            constructor._obs_assigned = 0
        #: Active regions in seq order, so newest (highest priority)
        #: last: "it takes a new trace start point from the highest
        #: priority worklist" walks this list reversed.
        self._active_regions: list[Region] = []
        self._next_seq = 0
        #: Constructors holding a region, as of the last schedule pass.
        self._busy: list[TraceConstructor] = []
        #: Set when a schedule pass may assign or reap again: a
        #: constructor was released, a region finished, or a start point
        #: was queued while a constructor was idle (DESIGN §10).
        self._dirty = False
        #: I-cache port cycles spent beyond what past idle bursts funded
        #: (a line fetch issued with 1 cycle of budget still costs the
        #: full miss latency); repaid out of the next burst's budget.
        self._port_debt = 0
        self.stats = PreconstructionStats()
        #: Statically precomputed start points (best-first), fed to the
        #: stack at startup and whenever the dynamic cues run dry.
        self._static_seeds: deque[int] = deque(static_seeds or ())
        #: Live view of the stack's membership table; empty exactly
        #: when the stack is.
        self._pending = self.stack._counts.keys()
        #: Optional :class:`repro.obs.ObsBus`; ``None`` (the default)
        #: keeps every instrumentation site a single dead branch, so
        #: the event-driven hot path from the performance overhaul is
        #: unchanged when observability is off.
        self.obs = None
        self._refill_from_seeds()

    def attach_obs(self, bus) -> None:
        """Attach an event bus to the engine and its buffers."""
        self.obs = bus
        self.buffers.obs = bus

    # ------------------------------------------------------------------
    # Static seeding: prime the start-point stack from a precomputed
    # best-first list (call returns + loop exits found by the static
    # analyzer) instead of waiting for the dispatch stream to reveal
    # them.  Seeds are pushed in reverse so the best one sits on top.
    # ------------------------------------------------------------------
    def _refill_from_seeds(self) -> None:
        if not self._static_seeds or self._pending:
            return
        batch: list[int] = []
        while self._static_seeds and len(batch) < self.config.start_stack_depth:
            batch.append(self._static_seeds.popleft())
        offered = 0
        for start_pc in reversed(batch):
            if self.stack.push(start_pc):
                offered += 1
        if offered:
            self.stats.static_seeds_offered += offered
            if self.obs:
                self.obs.emit("engine", "static_seeds", count=offered)

    # ------------------------------------------------------------------
    # Frontend-facing probe: buffers are accessed in parallel with the
    # trace cache; a hit is promoted into the trace cache.
    # ------------------------------------------------------------------
    def probe_and_promote(self, trace_id: TraceID) -> Optional[Trace]:
        """Probe the preconstruction buffers; on a hit, move the trace
        into the primary trace cache and invalidate the buffer entry."""
        trace = self.buffers.probe(trace_id)
        if trace is None:
            return None
        self.buffers.take(trace_id)
        self.trace_cache.insert(trace)
        self.stats.buffer_hits += 1
        return trace

    # ------------------------------------------------------------------
    # Dispatch-stream observation (§3.2).
    # ------------------------------------------------------------------
    def observe_dispatch(self, trace: Trace) -> None:
        """Scan one dispatched trace for start-point cues and catch-up."""
        # The cues are a pure function of the trace, and the selector
        # interns traces, so every point dispatching a trace shares one
        # scan of it.
        ends = trace._memo.get("cues")
        if ends is None:
            ends = trace._memo["cues"] = _cue_ends(trace)
        pcs = trace.pcs
        stack = self.stack
        pending = self._pending
        start = 0
        for end in ends:
            if not pending.isdisjoint(pcs[start:end]):
                self._reach(pcs[start:end])
            stack.push(pcs[end - 1] + INSTRUCTION_BYTES)
            start = end
        if not pending.isdisjoint(pcs[start:]):
            self._reach(pcs[start:])
        self._check_catch_up(trace)

    def _reach(self, pcs: tuple[int, ...]) -> None:
        """The processor reached these pcs: drop their pending points."""
        pending = self._pending
        for pc in pcs:
            if pc in pending:
                self.stack.remove_reached(pc)

    def _check_catch_up(self, trace: Trace) -> None:
        """Abandon any active region the processor has reached.

        "Reached" means the dispatch stream actually arrived at the
        region's start point — not merely that it touched a cache line
        the region happens to share (a loop body and its exit point
        usually share a line, and the whole point of a loop-exit region
        is to be built *while* the processor is still iterating).
        """
        active = self._active_regions
        if not active:
            return
        pcs = trace.pcs
        # A loop over a copy, not a comprehension: finishing a region
        # removes it from the active list.
        for region in active.copy():
            if region.start_pc in pcs:
                self._finish_region(region, abandoned=True)

    # ------------------------------------------------------------------
    # Work metering (§3.3): idle slow-path cycles fund construction.
    # ------------------------------------------------------------------
    def tick(self, idle_cycles: int) -> None:
        """Advance preconstruction by ``idle_cycles`` of slow-path idleness.

        Each idle cycle funds one decode step per constructor (they run
        in parallel); line fetches serialise on the shared I-cache port,
        which can move one line per ``latency`` cycles.

        The port budget carries debt across bursts: a fetch may issue
        on the last funded cycle and still cost a full miss latency, so
        the overdraft is repaid from the next burst instead of being
        forgotten (which used to over-credit the single I-cache port
        within every idle burst).

        A schedule pass may run at the tick's start and after each
        round with a notable step; it runs there only when it can
        change something (see :meth:`_schedule`).
        """
        if idle_cycles <= 0:
            return
        stats = self.stats
        stats.idle_cycles_offered += idle_cycles
        if self._static_seeds:
            self._refill_from_seeds()
        port_budget = idle_cycles - self._port_debt
        constructors = self.constructors
        decode_budget = funded = idle_cycles * len(constructors)
        port_used = 0
        handle = self._handle_step
        active_state = RegionState.ACTIVE
        busy = self._busy
        free_prefetch = self._free_prefetch
        pending = self._pending
        may_schedule = True
        while decode_budget > 0:
            if may_schedule:
                if self._dirty or (free_prefetch and pending):
                    busy = self._schedule()
                may_schedule = False
            if not busy:
                break
            progressed = False
            for constructor in busy:
                if decode_budget <= 0:
                    break
                region = constructor.region
                if region is None:
                    continue  # released mid-round (its region finished)
                # Will the step consume the shared I-cache port?
                pc = constructor._pc
                cache = region.prefetch_cache
                needs_fetch = (pc is not None and
                               pc // cache.line_bytes not in cache.lines)
                if needs_fetch and port_budget <= 0:
                    continue  # stalled on the I-cache port
                result = constructor.step(needs_fetch)
                # Every step costs exactly one decode slot; only fetch
                # steps touch the port, so skip the arithmetic otherwise.
                decode_budget -= 1
                port_cost = result.port_cost
                if port_cost:
                    port_budget -= port_cost
                    port_used += port_cost
                if result.notable or region.state is not active_state:
                    handle(constructor, result)
                    may_schedule = True
                progressed = True
            if not progressed:
                break
        stats.decode_steps += funded - decode_budget
        stats.port_cycles_used += port_used
        if self.obs and port_used:
            self.obs.metrics.on_port_cycles(self.obs.now, port_used)
        debt = -port_budget if port_budget < 0 else 0
        stats.port_overdraft_carried += max(0, debt - self._port_debt)
        self._port_debt = debt

    # ------------------------------------------------------------------
    def _schedule(self) -> list[TraceConstructor]:
        """One schedule pass: spawn, assign, reap; returns the busy
        constructors.

        It runs only when it can change something: ``_dirty`` is set,
        or a prefetch cache is free while the start-point stack holds
        an entry.  A reap frees its cache after this pass's spawn ran,
        so that spawn waits for the next pass point; the flag is
        cleared regardless, and the free cache alone calls that pass.
        """
        self._spawn_regions()
        self._assign_constructors()
        # Plain loops throughout the pass: a comprehension or generator
        # is one more function call per pass.
        busy = self._busy = []
        for constructor in self.constructors:
            if constructor.region is not None:
                busy.append(constructor)
        self._dirty = False
        return busy

    def _spawn_regions(self) -> None:
        """Turn the newest start points into regions while caches are free."""
        free_prefetch = self._free_prefetch
        pending = self._pending
        if not free_prefetch or not pending:
            return
        stack = self.stack
        pop = (stack.pop_newest if self.config.stack_order == "newest_first"
               else stack.pop_oldest)
        while free_prefetch and pending:
            start_pc = pop()
            if stack.recently_completed(start_pc):
                continue
            for region in self._active_regions:
                if region.start_pc == start_pc:
                    break
            else:
                cache = free_prefetch.pop()
                cache.reset()
                region = Region(
                    seq=self._next_seq, start_pc=start_pc,
                    prefetch_cache=cache,
                    max_start_points=self.config.max_start_points_per_region)
                self._next_seq += 1
                self._active_regions.append(region)
                self._regions_by_seq[region.seq] = region
                self.stats.regions_started += 1
                if self.obs:
                    self.obs.emit("engine", "region_spawn",
                                  region=region.seq, pc=start_pc)

    def _assign_constructors(self) -> None:
        """Hand free constructors start points, highest-priority region
        first ("it takes a new trace start point from the highest
        priority worklist")."""
        idle = []
        for constructor in self.constructors:
            if constructor.region is None:
                idle.append(constructor)
        if not idle:
            return
        for region in reversed(self._active_regions):
            worklist = region._worklist
            while idle and worklist:
                point = worklist.popleft()
                constructor = idle.pop()
                constructor.assign(region, point)
                if self.obs:
                    self.obs.emit("engine", "region_assign",
                                  region=region.seq, cid=constructor.cid,
                                  pc=point.pc)
                    constructor._obs_assigned = self.obs.now
            if not idle:
                break
        self._reap_regions()

    def _handle_step(self, constructor: TraceConstructor,
                     result: StepResult) -> None:
        region = constructor.region
        if result.completed is not None:
            self._install(region, result.completed, constructor)
        active = region.state is RegionState.ACTIVE
        if (result.new_start_point is not None and active
                and region.push_start_point(result.new_start_point)
                and len(self._busy) < len(self.constructors)):
            self._dirty = True  # an idle constructor can take it
        if result.region_fetch_bound:
            region.fetch_bound_hit = True
            self.stats.regions_fetch_bound += 1
            self._finish_region(region)
            active = False
        if result.finished or not active:
            if self.obs and constructor.region is not None:
                self.obs.emit("engine", "constructor_release",
                              cid=constructor.cid)
            constructor.release()
            self._dirty = True

    def _install(self, region: Region, trace: Trace,
                 constructor: Optional[TraceConstructor] = None) -> None:
        """Dedup then allocate a preconstruction buffer for ``trace``."""
        region.traces_built += 1
        self.stats.traces_constructed += 1
        duplicate = (self.trace_cache.contains(trace.trace_id)
                     or self.buffers.contains(trace.trace_id))
        if self.obs:
            now = self.obs.now
            latency = (now - constructor._obs_assigned
                       if constructor is not None else 0)
            self.obs.emit("engine", "trace_constructed", region=region.seq,
                          cid=(constructor.cid if constructor is not None
                               else -1),
                          pc=trace.trace_id.start_pc, len=len(trace),
                          latency=latency, dup=duplicate)
            self.obs.metrics.on_trace_constructed(now, latency)
        if duplicate:
            self.stats.traces_duplicate += 1
            return
        if not self.buffers.insert(trace, region.seq):
            region.buffer_failures += 1
            if region.buffer_failures >= self.config.buffer_failure_limit:
                self.stats.regions_buffer_bound += 1
                self._finish_region(region)

    def _finish_region(self, region: Region, abandoned: bool = False) -> None:
        """Retire a region, releasing its prefetch cache and constructors."""
        if not region.active:
            return
        if abandoned:
            region.abandon()
            self.stats.regions_abandoned += 1
            if self.obs:
                self.obs.emit("engine", "region_abandon", region=region.seq,
                              pc=region.start_pc, traces=region.traces_built)
        else:
            region.complete()
            self.stack.mark_completed(region.start_pc)
            self.stats.regions_completed += 1
            if self.obs:
                if region.fetch_bound_hit:
                    reason = "fetch_bound"
                elif (region.buffer_failures
                      >= self.config.buffer_failure_limit):
                    reason = "buffer_bound"
                else:
                    reason = "exhausted"
                self.obs.emit("engine", "region_complete", region=region.seq,
                              pc=region.start_pc, traces=region.traces_built,
                              reason=reason)
        for constructor in self.constructors:
            if constructor.region is region:
                if self.obs:
                    self.obs.emit("engine", "constructor_release",
                                  cid=constructor.cid)
                constructor.release()
        self._active_regions.remove(region)
        del self._regions_by_seq[region.seq]
        self._free_prefetch.append(region.prefetch_cache)
        self._dirty = True

    def _reap_regions(self) -> None:
        """Complete regions whose work is exhausted."""
        exhausted = []
        for region in self._active_regions:
            if not region._worklist:
                exhausted.append(region)
        if not exhausted:
            return
        constructors = self.constructors
        for region in exhausted:
            for constructor in constructors:
                if constructor.region is region:
                    break
            else:
                self._finish_region(region)

    # ------------------------------------------------------------------
    @property
    def active_region_count(self) -> int:
        return len(self._active_regions)

    def active_regions(self) -> tuple[Region, ...]:
        return tuple(self._active_regions)
