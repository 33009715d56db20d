"""Tests for the static-code trace constructor (paper §3.4).

The program under test mirrors the paper's Figure 2/3 example: a caller
invokes a procedure containing a loop and an if-then-else diamond, then
continues with a loop of its own.  The key property verified is
*alignment*: traces the constructor builds from the region start point
(the instruction after the JAL) must be exactly the traces the
processor later needs, identity-for-identity.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import ConstructorConfig, Region, StartPoint, TraceConstructor
from repro.core.region import RegionState
from repro.caches import PrefetchCache
from repro.engine import FunctionalEngine
from repro.isa import assemble
from repro.program import ProgramImage
from repro.trace import traces_of_stream

# Figure 2/3 analogue: main calls f (loop + diamond), then h/i-loop/j.
EXAMPLE = """
main:
    addi r9, r0, 3        # outer repetitions
outer:
    addi r1, r0, 0
    jal  f                # <- pushes region start point (after_call)
after_call:
    addi r5, r0, 0        # block h
loop_i:
    addi r5, r5, 1        # block i
    addi r6, r5, 0
    addi r7, r6, 1
    blt  r5, r2, loop_i   # i loop back edge (Br2 analogue)
    addi r8, r0, 7        # block j
    addi r9, r9, -1
    bne  r9, r0, outer
    jr   ra

f:
    addi r2, r0, 4        # block b
loop_c:
    addi r1, r1, 1        # block c
    blt  r1, r2, loop_c   # loop back edge (Br1 analogue)
    andi r3, r1, 1        # diamond entry, block d
    beq  r3, r0, f_else
    addi r4, r0, 1        # block e
    j    f_join
f_else:
    addi r4, r0, 2        # block f
f_join:
    add  r4, r4, r1       # block g
    jr   ra
"""


@pytest.fixture(scope="module")
def example():
    insts, labels = assemble(EXAMPLE, base=0x1000)
    image = ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels)
    stream = FunctionalEngine(image).run(10_000)
    return image, labels, stream


def _trained_bimodal(stream) -> BimodalPredictor:
    predictor = BimodalPredictor(entries=4096, initial=1)
    for record in stream:
        if record.inst.is_conditional_branch:
            predictor.update(record.pc, record.taken)
    return predictor


def _run_constructor(image, bimodal, start_pc, *,
                     config=None, capacity=256):
    icache = InstructionCache()
    region = Region(seq=0, start_pc=start_pc,
                    prefetch_cache=PrefetchCache(capacity))
    constructor = TraceConstructor(image, icache, bimodal, config=config)
    built = []
    while True:
        if not constructor.busy:
            point = region.pop_start_point()
            if point is None or not region.active:
                break
            constructor.assign(region, point)
        result = constructor.step()
        if result.completed is not None:
            built.append(result.completed)
        if result.new_start_point is not None:
            region.push_start_point(result.new_start_point)
        if result.region_fetch_bound:
            region.complete()
        if result.finished:
            constructor.release()
    return built, region, icache


class TestConstructorAlignment:
    def test_preconstructed_traces_align_with_demand(self, example):
        """Every trace the processor needs from the region start point
        onward (until leaving the region) is among the preconstructed
        traces, with an exactly matching identity."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        start_pc = labels["after_call"]
        built, _, _ = _run_constructor(image, bimodal, start_pc)
        built_ids = {t.trace_id for t in built}

        demand = traces_of_stream(stream)
        # Demand traces that begin exactly at the region start point:
        region_demand = [t for t in demand if t.start_pc == start_pc]
        assert region_demand, "stream never reaches the start point?"
        matched = [t for t in region_demand if t.trace_id in built_ids]
        assert matched, (
            "no demand trace at the region start point was preconstructed")

    def test_constructed_content_matches_demand_content(self, example):
        """Identity match implies content match (no ID collisions)."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"])
        demand_by_id = {t.trace_id: t for t in traces_of_stream(stream)}
        overlap = 0
        for trace in built:
            if trace.trace_id in demand_by_id:
                overlap += 1
                assert demand_by_id[trace.trace_id].pcs == trace.pcs
        assert overlap > 0

    def test_strongly_biased_branches_follow_single_path(self, example):
        """With all branches trained strongly, the constructor never
        backtracks, so each start point yields a linear set of traces."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        # Saturate every branch counter further (make everything strong).
        for record in stream:
            if record.inst.is_conditional_branch:
                for _ in range(3):
                    bimodal.update(record.pc, record.taken)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"])
        # Weak-branch forks are impossible; outcome vectors must be
        # consistent with the trained directions.
        for trace in built:
            index = 0
            for pc, inst in zip(trace.pcs, trace.instructions):
                if inst.is_conditional_branch:
                    # Strong bias: trace follows the trained direction.
                    assert trace.trace_id.outcomes[index] == \
                        bimodal.peek(pc)
                    index += 1

    def test_untrained_branches_fork_both_paths(self, example):
        """With a cold (weak) predictor, the constructor explores both
        directions of the diamond and produces sibling traces."""
        image, labels, stream = example
        bimodal = BimodalPredictor(entries=4096, initial=1)  # all weak
        built, _, _ = _run_constructor(image, bimodal, labels["f"])
        starts = {}
        for trace in built:
            starts.setdefault(trace.start_pc, set()).add(
                trace.trace_id.outcomes)
        # At least one start point produced differing outcome vectors.
        assert any(len(vectors) > 1 for vectors in starts.values())

    def test_never_emits_partial_traces(self, example):
        """Resource bounds discard partial work instead of emitting a
        colliding short trace."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        config = ConstructorConfig(max_walk_instructions=6)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"],
                                       config=config)
        demand_by_id = {t.trace_id: t for t in traces_of_stream(stream)}
        for trace in built:
            if trace.trace_id in demand_by_id:
                assert demand_by_id[trace.trace_id].pcs == trace.pcs

    def test_fetch_bound_terminates_region(self, example):
        image, labels, stream = example
        bimodal = BimodalPredictor(entries=4096, initial=1)  # cold: forks
        # One-line prefetch cache: walking procedure f crosses a 64-byte
        # line boundary, so the fill-up bound must fire.
        built, region, _ = _run_constructor(
            image, bimodal, labels["f"], capacity=16)
        assert region.state is RegionState.COMPLETED
        assert region.prefetch_cache.full

    def test_icache_traffic_attributed_to_preconstruct(self, example):
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        _, _, icache = _run_constructor(image, bimodal, labels["after_call"])
        traffic = icache.client_traffic("preconstruct")
        assert traffic.lines_accessed > 0
        assert traffic.misses > 0  # cold I-cache

    def test_indirect_termination(self, example):
        """Paths terminate at returns whose calls were not observed in
        the region (statically opaque targets)."""
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        # Region rooted at f's entry: its final `jr ra` has no matching
        # call inside the region, so no start point beyond it may exist.
        built, region, _ = _run_constructor(image, bimodal, labels["f"])
        f_first = labels["f"]
        f_end = max(pc for trace in built for pc in trace.pcs)
        for trace in built:
            for pc in trace.pcs:
                assert pc >= f_first, "constructor escaped through a return"


# ----------------------------------------------------------------------
# Walk scripts: a replayed walk is step-for-step the live walk.

_CONFIGS = (
    ConstructorConfig(),
    ConstructorConfig(max_decision_depth=2, max_traces_per_start=3,
                      max_walk_instructions=12),
    ConstructorConfig(max_walk_instructions=7, max_call_depth=1),
)


def _random_ops(rng: random.Random) -> list[tuple[int, int]]:
    """(kind, value) pairs: kinds 0-7 step (assigning a start point
    first when idle), 8 releases, 9-11 set a branch's bias counter
    between steps."""
    return [(rng.randrange(12), rng.randrange(1 << 16))
            for _ in range(rng.randrange(1, 160))]


def _example_image():
    insts, labels = assemble(EXAMPLE, base=0x1000)
    return ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels)


def _trace_key(trace):
    if trace is None:
        return None
    return (trace.trace_id, trace.pcs, trace.next_pc, trace.ends_in_call,
            trace.ends_in_return)


def _drive(image, config, ops, live=False):
    """Run ``ops`` on a fresh constructor over ``image`` and return what
    every step showed the engine.  ``live`` empties the image's script
    store before each walk, so every walk runs live (the reference)."""
    bimodal = BimodalPredictor(entries=4096, initial=1)
    icache = InstructionCache()
    constructor = TraceConstructor(image, icache, bimodal, config=config)
    pcs = list(image.addresses())
    branches = [pc for pc in pcs if image.fetch(pc).is_conditional_branch]
    stacks = ((), (image.labels["after_call"],),
              (image.labels["after_call"], image.labels["outer"]))
    seen: list = []
    region = None
    for kind, value in ops:
        if kind >= 9:
            pc = branches[value % len(branches)]
            for _ in range(3):
                bimodal.update(pc, False)
            for _ in range(value >> 8 & 3):
                bimodal.update(pc, True)
            continue
        if kind == 8 and constructor.busy:
            constructor.release()
            seen.append("release")
            continue
        if not constructor.busy:
            if live:
                for scripts in image.walk_scripts.values():
                    scripts.roots.clear()
            start = StartPoint(pcs[value % len(pcs)],
                               stacks[(value >> 6) % len(stacks)])
            # Small prefetch caches make the fetch bound fire.
            region = Region(seq=0, start_pc=start.pc, prefetch_cache=(
                PrefetchCache((16, 32, 256)[(value >> 10) % 3])))
            constructor.assign(region, start)
            seen.append(start)
        pc = constructor._pc
        needs_fetch = (None if kind & 1 else
                       pc is not None
                       and not region.prefetch_cache.contains(pc))
        result = constructor.step(needs_fetch)
        seen.append((result.port_cost, _trace_key(result.completed),
                     result.new_start_point, result.finished,
                     result.region_fetch_bound, result.notable,
                     constructor._pc))
        # Release at the end of a walk as the engine does, but now and
        # then keep stepping a finished or fetch-bound walk.
        if result.finished and kind < 6:
            constructor.release()
    seen.append(dataclasses.asdict(icache.client_traffic("preconstruct")))
    return seen


class TestWalkScriptReplay:
    # The op lists come from a drawn seed: Hypothesis's own list draws
    # are too tame to reach a bias no recorded child matches.
    @settings(max_examples=150, deadline=None)
    @given(config=st.sampled_from(_CONFIGS), seed=st.integers(0, 1 << 32),
           warm=st.integers(1, 3))
    def test_replay_matches_live_walker(self, config, seed, warm):
        """Cold and warmed script stores both reproduce the live walker
        step for step, under bias flips, fetch bounds and releases."""
        rng = random.Random(seed)
        ops = _random_ops(rng)
        reference = _drive(_example_image(), config, ops, live=True)
        assert _drive(_example_image(), config, ops) == reference
        warmed = _example_image()
        for _ in range(warm):
            _drive(warmed, config, _random_ops(rng))
        assert _drive(warmed, config, ops) == reference

    def test_scripts_live_on_the_image(self, example):
        image, labels, stream = example
        bimodal = _trained_bimodal(stream)
        built, _, _ = _run_constructor(image, bimodal, labels["after_call"])
        (scripts,) = [scripts for (_, config), scripts
                      in image.walk_scripts.items()
                      if config == ConstructorConfig()]
        assert StartPoint(labels["after_call"]) in scripts.roots
        again, _, icache = _run_constructor(image, bimodal,
                                            labels["after_call"])
        assert again == built
        # Replay still fetches through the cold per-point I-cache.
        assert icache.client_traffic("preconstruct").misses > 0
