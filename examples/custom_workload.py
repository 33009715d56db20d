#!/usr/bin/env python3
"""Build a custom workload and watch the preconstruction engine work.

Shows the library's lower-level APIs: write a program in assembly (the
paper's Figure 2/3 example shape), execute it, partition the stream
into traces, and drive the preconstruction engine directly to inspect
the regions it opens and the traces it builds.

Run:  python examples/custom_workload.py
"""

from __future__ import annotations

from repro.api import (
    BimodalPredictor,
    FunctionalEngine,
    InstructionCache,
    PreconstructionEngine,
    ProgramImage,
    TraceCache,
    assemble,
    traces_of_stream,
)

# The paper's Figure 2 example: a call to a procedure with a loop and a
# diamond, followed by a loop and tail code in the caller.
SOURCE = """
main:
    addi r9, r0, 50        # outer repetitions
outer:
    addi r1, r0, 0
    jal  f                 # JAL: pushes a region start point
after_call:
    addi r5, r0, 0         # block h
loop_i:
    addi r5, r5, 1         # block i
    addi r6, r5, 0
    blt  r5, r2, loop_i    # i-loop back edge: pushes a start point
    addi r8, r0, 7         # block j
    addi r9, r9, -1
    bne  r9, r0, outer
    jr   ra
f:
    addi r2, r0, 6         # block b
loop_c:
    addi r1, r1, 1         # block c
    blt  r1, r2, loop_c    # Br1: loop back edge
    andi r3, r1, 1         # block d
    beq  r3, r0, f_else
    addi r4, r0, 1         # block e
    j    f_join
f_else:
    addi r4, r0, 2         # block f
f_join:
    add  r4, r4, r1        # block g
    jr   ra
"""


def main() -> None:
    instructions, labels = assemble(SOURCE, base=0x1000)
    image = ProgramImage(instructions=instructions, code_base=0x1000,
                         entry=0x1000, labels=labels)
    stream = FunctionalEngine(image).run(5000)
    traces = traces_of_stream(stream)
    print(f"executed {len(stream)} instructions -> {len(traces)} traces "
          f"({len({t.trace_id for t in traces})} unique)")

    # Wire up a preconstruction engine and drive it by hand.
    icache = InstructionCache()
    trace_cache = TraceCache()
    bimodal = BimodalPredictor()
    engine = PreconstructionEngine(
        image=image, icache=icache, bimodal=bimodal,
        trace_cache=trace_cache, buffer_entries=64)

    hits = 0
    for trace in traces:
        if trace_cache.lookup(trace.trace_id) is None:
            if engine.probe_and_promote(trace.trace_id) is not None:
                hits += 1
            else:
                trace_cache.insert(trace)  # demand fill
        engine.observe_dispatch(trace)
        engine.tick(idle_cycles=4)  # pretend 4 idle slow-path cycles
        # Train the bias oracle like the retire stage would.
        index = 0
        for pc, inst in zip(trace.pcs, trace.instructions):
            if inst.is_conditional_branch:
                bimodal.update(pc, trace.trace_id.outcomes[index])
                index += 1

    stats = engine.stats
    print(f"\nregions started:   {stats.regions_started}")
    print(f"regions completed: {stats.regions_completed}")
    print(f"regions abandoned (processor caught up): "
          f"{stats.regions_abandoned}")
    print(f"traces constructed: {stats.traces_constructed} "
          f"({stats.traces_duplicate} already cached)")
    print(f"preconstructed traces used by the processor: {hits}")
    print("\nA program this small lives in the trace cache after one "
          "iteration, so the\nengine's work is mostly duplicate detection "
          "— the mechanics are the point\nhere.  See examples/quickstart.py "
          "for a workload where preconstruction pays.")


if __name__ == "__main__":
    main()
