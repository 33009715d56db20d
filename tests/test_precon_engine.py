"""Integration tests for the preconstruction engine (dispatch
observation, region lifecycle, buffer promotion), and reference models
of its scheduler and dispatch-cue scan."""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import PreconstructionConfig, PreconstructionEngine
from repro.core.region import Region, RegionState
from repro.engine import FunctionalEngine
from repro.frontends import base as frontends_base
from repro.frontends.preconstruction import PreconstructionMechanism
from repro.isa import INSTRUCTION_BYTES, assemble
from repro.processor import run_processor
from repro.program import ProgramImage
from repro.runner import ExperimentSpec
from repro.runner.pool import StreamCache
from repro.sim import run_frontend
from repro.trace import TraceCache, traces_of_stream

SOURCE = """
main:
    addi r9, r0, 30
outer:
    addi r1, r0, 0
    jal  f
after_call:
    addi r5, r0, 0
loop_i:
    addi r5, r5, 1
    addi r6, r5, 0
    addi r7, r6, 1
    blt  r5, r2, loop_i
    addi r8, r0, 7
    addi r9, r9, -1
    bne  r9, r0, outer
    jr   ra
f:
    addi r2, r0, 5
loop_c:
    addi r1, r1, 1
    blt  r1, r2, loop_c
    andi r3, r1, 1
    beq  r3, r0, f_else
    addi r4, r0, 1
    j    f_join
f_else:
    addi r4, r0, 2
f_join:
    add  r4, r4, r1
    jr   ra
"""


@pytest.fixture()
def setup():
    insts, labels = assemble(SOURCE, base=0x1000)
    image = ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels)
    stream = FunctionalEngine(image).run(4000)
    traces = traces_of_stream(stream)
    icache = InstructionCache()
    trace_cache = TraceCache()
    bimodal = BimodalPredictor()
    engine = PreconstructionEngine(
        image=image, icache=icache, bimodal=bimodal,
        trace_cache=trace_cache, buffer_entries=128)
    return image, labels, traces, engine, trace_cache, bimodal


def _drive(traces, engine, trace_cache, bimodal, idle_per_trace=6):
    """Minimal frontend loop around the engine."""
    promoted = 0
    for trace in traces:
        if trace_cache.lookup(trace.trace_id) is None:
            if engine.probe_and_promote(trace.trace_id) is not None:
                promoted += 1
            else:
                trace_cache.insert(trace)
        engine.observe_dispatch(trace)
        engine.tick(idle_per_trace)
        index = 0
        for pc, inst in zip(trace.pcs, trace.instructions):
            if inst.is_conditional_branch:
                bimodal.update(pc, trace.trace_id.outcomes[index])
                index += 1
    return promoted


class TestEngineLifecycle:
    def test_calls_push_start_points(self, setup):
        image, labels, traces, engine, trace_cache, bimodal = setup
        engine.observe_dispatch(traces[0])  # contains the first JAL
        assert labels["after_call"] in engine.stack

    def test_regions_spawn_and_retire(self, setup):
        image, labels, traces, engine, trace_cache, bimodal = setup
        _drive(traces, engine, trace_cache, bimodal)
        stats = engine.stats
        assert stats.regions_started > 0
        assert (stats.regions_completed + stats.regions_abandoned
                + engine.active_region_count) == stats.regions_started

    def test_catch_up_abandons_regions(self, setup):
        image, labels, traces, engine, trace_cache, bimodal = setup
        _drive(traces, engine, trace_cache, bimodal)
        # The after_call region start is reached every outer iteration.
        assert engine.stats.regions_abandoned > 0

    def test_traces_get_constructed_and_deduped(self, setup):
        image, labels, traces, engine, trace_cache, bimodal = setup
        _drive(traces, engine, trace_cache, bimodal)
        stats = engine.stats
        assert stats.traces_constructed > 0
        assert stats.traces_duplicate <= stats.traces_constructed

    def test_promotion_invalidates_buffer_entry(self, setup):
        image, labels, traces, engine, trace_cache, bimodal = setup
        _drive(traces, engine, trace_cache, bimodal)
        for trace in engine.buffers.resident_traces():
            promoted = engine.probe_and_promote(trace.trace_id)
            assert promoted is not None
            assert trace_cache.contains(trace.trace_id)
            assert not engine.buffers.contains(trace.trace_id)

    def test_zero_idle_cycles_is_noop(self, setup):
        image, labels, traces, engine, trace_cache, bimodal = setup
        engine.observe_dispatch(traces[0])
        engine.tick(0)
        assert engine.stats.decode_steps == 0

    def test_constructed_traces_are_genuine(self, setup):
        """Everything in the buffers must match a demand trace or be a
        plausible alternate path: identical IDs imply identical pcs."""
        image, labels, traces, engine, trace_cache, bimodal = setup
        _drive(traces, engine, trace_cache, bimodal)
        demand = {t.trace_id: t.pcs for t in traces}
        for trace in engine.buffers.resident_traces():
            if trace.trace_id in demand:
                assert demand[trace.trace_id] == trace.pcs

    def test_stack_order_config_validated(self):
        with pytest.raises(ValueError):
            PreconstructionConfig(stack_order="sideways")


class TestStaticSeeding:
    def test_seeds_prime_the_stack(self, setup):
        image, labels, traces, _engine, trace_cache, bimodal = setup
        seeds = [labels["after_call"], labels["f_join"]]
        engine = PreconstructionEngine(
            image=image, icache=InstructionCache(),
            bimodal=BimodalPredictor(), trace_cache=TraceCache(),
            buffer_entries=128, static_seeds=seeds)
        # Best seed (first in the list) sits on top of the stack.
        assert engine.stack.peek_newest() == seeds[0]
        assert engine.stats.static_seeds_offered == len(seeds)

    def test_seed_queue_refills_when_stack_drains(self, setup):
        image, labels, *_ = setup
        depth = 4
        seeds = [image.code_base + 4 * i for i in range(depth * 2)]
        engine = PreconstructionEngine(
            image=image, icache=InstructionCache(),
            bimodal=BimodalPredictor(), trace_cache=TraceCache(),
            buffer_entries=128,
            config=PreconstructionConfig(start_stack_depth=depth),
            static_seeds=seeds)
        assert engine.stats.static_seeds_offered == depth
        # Drain the stack; the next tick must feed the second batch.
        while engine.stack.pop_newest() is not None:
            pass
        engine.tick(1)
        assert engine.stats.static_seeds_offered == depth * 2

    def test_no_seeds_is_the_default(self, setup):
        _image, _labels, _traces, engine, *_ = setup
        assert engine.stats.static_seeds_offered == 0
        assert len(engine.stack) == 0


class TestNoReferenceCycles:
    """A finished point's state is freed by reference counting alone.

    The buffers' replacement policy reads region state through a
    function over the engine's region map; a bound engine method there
    made every preconstruction point's engine cyclic garbage, left for
    the generational collector."""

    def test_points_leave_no_cyclic_garbage(self):
        from repro.frontends import mechanism_names
        from repro.runner import ExperimentSpec
        from repro.runner.pool import StreamCache, execute_spec

        specs = [ExperimentSpec(benchmark="gcc", tc_entries=64,
                                pb_entries=64, mechanism=mechanism,
                                instructions=3_000)
                 for mechanism in mechanism_names()]
        specs.append(ExperimentSpec(benchmark="go", tc_entries=128,
                                    pb_entries=128, kind="processor",
                                    instructions=3_000))
        streams = StreamCache(3_000)
        for spec in specs:  # build images, streams and plans first
            execute_spec(spec, streams)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for spec in specs:
                execute_spec(spec, streams)
                gc.collect()
                assert len(gc.garbage) == 0, spec.label
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


# ----------------------------------------------------------------------
# Reference models.  The engine keeps its schedule state incremental and
# shares each trace's cue scan across points; these subclasses keep the
# straightforward versions, and every simulated number must match them.
# ----------------------------------------------------------------------
class ReferenceScheduler(PreconstructionMechanism):
    """A full schedule pass (spawn, assign, reap, rebuilt busy list) at
    every tick start and after every round with a notable step; regions
    ranked by sorting on (active, seq)."""

    def tick(self, idle_cycles: int) -> None:
        if idle_cycles <= 0:
            return
        stats = self.stats
        stats.idle_cycles_offered += idle_cycles
        self._refill_from_seeds()
        port_budget = idle_cycles - self._port_debt
        constructors = self.constructors
        decode_budget = idle_cycles * len(constructors)
        busy: list = []
        needs_schedule = True
        while decode_budget > 0:
            if needs_schedule:
                self._spawn_regions()
                self._assign_constructors()
                busy = [c for c in constructors if c.region is not None]
                needs_schedule = False
            if not busy:
                break
            progressed = False
            for constructor in busy:
                if decode_budget <= 0:
                    break
                region = constructor.region
                if region is None:
                    continue
                pc = constructor._pc
                needs_fetch = (pc is not None and
                               not region.prefetch_cache.contains(pc))
                if needs_fetch and port_budget <= 0:
                    continue
                result = constructor.step(needs_fetch)
                decode_budget -= 1
                stats.decode_steps += 1
                if result.port_cost:
                    port_budget -= result.port_cost
                    stats.port_cycles_used += result.port_cost
                if result.notable or region.state is not RegionState.ACTIVE:
                    self._handle_step(constructor, result)
                    needs_schedule = True
                progressed = True
            if not progressed:
                break
        debt = -port_budget if port_budget < 0 else 0
        stats.port_overdraft_carried += max(0, debt - self._port_debt)
        self._port_debt = debt

    def _spawn_regions(self) -> None:
        newest_first = self.config.stack_order == "newest_first"
        while self._free_prefetch and len(self.stack):
            start_pc = (self.stack.pop_newest() if newest_first
                        else self.stack.pop_oldest())
            if self.stack.recently_completed(start_pc):
                continue
            if any(r.start_pc == start_pc for r in self._active_regions):
                continue
            cache = self._free_prefetch.pop()
            cache.reset()
            region = Region(
                seq=self._next_seq, start_pc=start_pc, prefetch_cache=cache,
                max_start_points=self.config.max_start_points_per_region)
            self._next_seq += 1
            self._active_regions.append(region)
            self._regions_by_seq[region.seq] = region
            self.stats.regions_started += 1

    def _assign_constructors(self) -> None:
        idle = [c for c in self.constructors if c.region is None]
        if not idle:
            return
        regions = sorted(self._active_regions,
                         key=lambda r: (1 if r.active else 0, r.seq),
                         reverse=True)
        for region in regions:
            while idle and not region.worklist_empty:
                idle.pop().assign(region, region.pop_start_point())
            if not idle:
                break
        self._reap_regions()

    def _reap_regions(self) -> None:
        assigned = {id(c.region) for c in self.constructors}
        for region in [r for r in self._active_regions if r.worklist_empty]:
            if id(region) not in assigned:
                self._finish_region(region)


def _cue_segments(trace):
    """The trace's pcs split after each start-point cue, with the pc
    set of each segment and the start point it pushes."""
    segments, pcs = [], []
    outcomes = iter(trace.trace_id.outcomes)
    for pc, inst in zip(trace.pcs, trace.instructions):
        pcs.append(pc)
        if inst.is_call:
            push = True
        elif inst.is_conditional_branch:
            push = next(outcomes) and inst.is_backward
        else:
            continue
        if push:
            segments.append((pcs, frozenset(pcs), pc + INSTRUCTION_BYTES))
            pcs = []
    if pcs:
        segments.append((pcs, frozenset(pcs), None))
    return segments


class PerPointScan(PreconstructionMechanism):
    """Scans every dispatched trace afresh, with a pc set per segment
    and per trace."""

    def observe_dispatch(self, trace) -> None:
        pending = self.stack._counts
        for pcs, pc_set, push in _cue_segments(trace):
            if not pc_set.isdisjoint(pending):
                for pc in pcs:
                    if pc in pending:
                        self.stack.remove_reached(pc)
            if push is not None:
                self.stack.push(push)
        pcs = frozenset(trace.pcs)
        for region in list(self._active_regions):
            if region.start_pc in pcs:
                self._finish_region(region, abandoned=True)


def _schedule_state(engine) -> tuple:
    """What a schedule pass or a dispatch scan can move."""
    residents = tuple((trace.trace_id, seq) for trace, seq
                      in engine.buffers.resident_with_regions())
    return (tuple(c.region.seq if c.region is not None else None
                  for c in engine.constructors),
            tuple(region.seq for region in engine.active_regions()),
            engine.stack.entries(), len(engine._free_prefetch),
            dataclasses.asdict(engine.stats), hash(residents))


def _recording(cls, hook: str):
    """``cls`` with its state recorded after every ``hook`` call."""
    def recorded(self, *args):
        getattr(cls, hook)(self, *args)
        self.states.append(_schedule_state(self))

    def build(subclass, context):
        engine = cls.build.__func__(subclass, context)
        if engine is not None:
            engine.states = []
        return engine
    return type(f"Recorded{cls.__name__}", (cls,),
                {hook: recorded, "build": classmethod(build)})


def _run_point(spec: ExperimentSpec, streams: StreamCache, cls, hook: str,
               monkeypatch) -> list:
    """Run ``spec`` with ``cls`` as its engine; the states after every
    ``hook`` call."""
    monkeypatch.setitem(frontends_base._REGISTRY, "preconstruction",
                        _recording(cls, hook))
    image = streams.image(spec.benchmark, spec.workload_seed)
    if spec.kind == "processor":
        stream = streams.stream(spec.benchmark, spec.workload_seed)
        result = run_processor(image, spec.processor_config(),
                               spec.instructions, stream=stream)
    else:
        config = spec.frontend_config()
        plan = streams.plan(spec.benchmark, spec.instructions, config,
                            spec.workload_seed)
        result = run_frontend(image, config, plan=plan)
    return result.preconstruction.states


def _assert_same_states(actual: list, expected: list) -> None:
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"diverged at call {index}"


#: Points on seeded streams.  On gcc, workload seed 5, tc=64 pb=256, a
#: reap frees a prefetch cache while the start-point stack holds
#: entries within the first 20 ticks: that spawn waits for the next
#: pass, and a schedule gate that forgets the freed cache diverges.
SCHEDULE_POINTS = [
    ExperimentSpec(benchmark="gcc", tc_entries=64, pb_entries=256,
                   workload_seed=5, instructions=20_000),
    ExperimentSpec(benchmark="go", tc_entries=128, pb_entries=64,
                   workload_seed=1, instructions=8_000),
    ExperimentSpec(benchmark="vortex", tc_entries=32, pb_entries=512,
                   workload_seed=2, instructions=8_000),
    ExperimentSpec(benchmark="perl", tc_entries=64, pb_entries=128,
                   static_seed=True, instructions=8_000),
    ExperimentSpec(benchmark="go", tc_entries=128, pb_entries=128,
                   kind="processor", instructions=4_000),
]


class TestReferenceScheduler:
    @pytest.mark.parametrize("spec", SCHEDULE_POINTS,
                             ids=[spec.label for spec in SCHEDULE_POINTS])
    def test_tick_by_tick(self, spec, monkeypatch):
        streams = StreamCache(spec.instructions)
        expected = _run_point(spec, streams, ReferenceScheduler, "tick",
                              monkeypatch)
        actual = _run_point(spec, streams, PreconstructionMechanism,
                            "tick", monkeypatch)
        assert any(state[4]["regions_started"] for state in actual)
        _assert_same_states(actual, expected)


class TestCueMemo:
    def test_points_sharing_a_plan_match_a_per_point_scan(self,
                                                          monkeypatch):
        streams = StreamCache(8_000)
        points = [ExperimentSpec(benchmark="gcc", tc_entries=64,
                                 pb_entries=pb, instructions=8_000)
                  for pb in (64, 256)]
        plan = streams.plan("gcc", 8_000, points[0].frontend_config())
        for spec in points:
            expected = _run_point(spec, streams, PerPointScan,
                                  "observe_dispatch", monkeypatch)
            actual = _run_point(spec, streams, PreconstructionMechanism,
                                "observe_dispatch", monkeypatch)
            assert any(state[4]["regions_abandoned"] for state in actual)
            _assert_same_states(actual, expected)
        assert all("cues" in trace._memo for trace in plan.traces)

    def test_memo_bytes_per_distinct_trace(self):
        """The cue memo costs at most 48 bytes per distinct trace: a
        trace with cues keeps one small tuple of indices, one without
        shares the empty tuple, and no trace keeps a pc set (one
        frozenset alone is over 200 bytes)."""
        streams = StreamCache(20_000)
        spec = ExperimentSpec(benchmark="gcc", tc_entries=64,
                              pb_entries=64, instructions=20_000)
        plan = streams.plan("gcc", 20_000, spec.frontend_config())
        distinct = list({id(trace): trace for trace in plan.traces}.values())
        engine = PreconstructionEngine(
            image=streams.image("gcc"), icache=InstructionCache(),
            bimodal=BimodalPredictor(), trace_cache=TraceCache(),
            buffer_entries=64)
        gc.collect()  # empties the free lists, so every tuple is counted
        tracemalloc.start()
        try:
            for trace in distinct:
                engine.observe_dispatch(trace)
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all("cues" in trace._memo for trace in distinct)
        assert allocated / len(distinct) <= 48
