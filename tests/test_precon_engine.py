"""Integration tests for the preconstruction engine (dispatch
observation, region lifecycle, buffer promotion)."""

import pytest

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import PreconstructionConfig, PreconstructionEngine
from repro.engine import FunctionalEngine
from repro.isa import assemble
from repro.program import ProgramImage
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
        import gc

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
