"""Static region seeding: precompute the paper's region start points.

The preconstruction engine discovers region start points dynamically
(§3.1-§3.2): a dispatched *call* pushes its return point, a taken
*backward branch* pushes its fall-through (the loop exit).  Both cues
are visible statically — every call site and every natural-loop back
edge in the recovered CFG yields the same start point the hardware
would push — so the whole start-point population can be computed ahead
of time and used to seed the engine (``--static-seed`` mode).

Each seed carries a *static footprint estimate* (§3.2's region extent
made static): the number of instructions reachable from the seed
within its procedure, and the corresponding I-cache line count, which
is what bounds a region against its fill-up prefetch cache.

Seeds are returned best-first: loop exits of deeply nested loops ahead
of shallow ones ahead of call returns, larger footprints first within
a tier.  This approximates the newest-first hardware stack order, where
inner constructs are pushed (and therefore popped) closest to use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa import INSTRUCTION_BYTES, Kind
from repro.program.image import ProgramImage
from repro.static.callgraph import StaticCallGraph
from repro.static.dominators import DominatorTree, find_loops
from repro.static.recovery import ProcedureRange, RecoveredCFG

#: I-cache line size used for footprint line estimates (matches
#: :class:`repro.caches.ICacheConfig`'s 64-byte default).
LINE_BYTES = 64

#: Walk bound for footprint estimation (instructions).
FOOTPRINT_CAP = 2048


@dataclass(frozen=True)
class StaticSeed:
    """One statically computed region start point.

    ``kind`` is ``"call_return"`` (instruction after a call site) or
    ``"loop_exit"`` (fall-through of a loop-closing backward branch) —
    the exact addresses the engine's dispatch monitor would push.
    """

    pc: int
    kind: str
    procedure: str
    cue_pc: int                  # the call / backward branch itself
    loop_depth: int = 0
    footprint_instructions: int = 0

    @property
    def footprint_lines(self) -> int:
        return -(-self.footprint_instructions * INSTRUCTION_BYTES
                 // LINE_BYTES)

    def to_dict(self) -> dict[str, object]:
        return {
            "pc": self.pc,
            "kind": self.kind,
            "procedure": self.procedure,
            "cue_pc": self.cue_pc,
            "loop_depth": self.loop_depth,
            "footprint_instructions": self.footprint_instructions,
            "footprint_lines": self.footprint_lines,
        }


def compute_static_seeds(image: ProgramImage,
                         cfg: Optional[RecoveredCFG] = None,
                         callgraph: Optional[StaticCallGraph] = None,
                         ) -> list[StaticSeed]:
    """All static region start points of ``image``, best-first.

    Only live procedures contribute (the processor can never dispatch
    a cue from unreferenced code, so the hardware would never see those
    start points either).
    """
    cfg = cfg or RecoveredCFG(image)
    graph = callgraph or StaticCallGraph(cfg)
    seeds: list[StaticSeed] = []
    for proc in cfg.procedures:
        if proc.name not in graph.live:
            continue
        reachable = cfg.reachable_blocks(proc)
        if not reachable:
            continue
        tree = DominatorTree(cfg, proc)
        loops = find_loops(tree)
        depth_of_block: dict[int, int] = {}
        for loop in loops:
            for block in loop.body:
                depth_of_block[block] = max(depth_of_block.get(block, 0),
                                            loop.depth)

        # Loop exits: the fall-through of each back-edge branch.
        for loop in loops:
            for source, _header in loop.back_edges:
                block = cfg.blocks[source]
                branch_pc = block.end - INSTRUCTION_BYTES
                inst = image.try_fetch(branch_pc)
                if inst is None or inst.kind is not Kind.BRANCH:
                    continue   # back edge closed by a jump, not a branch
                exit_pc = branch_pc + INSTRUCTION_BYTES
                seeds.append(StaticSeed(
                    pc=exit_pc, kind="loop_exit", procedure=proc.name,
                    cue_pc=branch_pc, loop_depth=loop.depth,
                    footprint_instructions=_footprint(cfg, proc, exit_pc)))

        # Call returns: the instruction after every reachable call site.
        for block_start in sorted(reachable):
            for pc, inst in cfg.rows[block_start]:
                if inst.kind in (Kind.CALL, Kind.CALL_INDIRECT):
                    return_pc = pc + INSTRUCTION_BYTES
                    seeds.append(StaticSeed(
                        pc=return_pc, kind="call_return",
                        procedure=proc.name, cue_pc=pc,
                        loop_depth=depth_of_block.get(block_start, 0),
                        footprint_instructions=_footprint(cfg, proc,
                                                          return_pc)))

    seeds.sort(key=lambda s: (s.kind != "loop_exit", -s.loop_depth,
                              -s.footprint_instructions, s.pc))
    # A call at a block's end can make its return point coincide with a
    # loop exit; keep the highest-priority seed per address.
    seen: set[int] = set()
    unique: list[StaticSeed] = []
    for seed in seeds:
        if seed.pc not in seen:
            seen.add(seed.pc)
            unique.append(seed)
    return unique


def _footprint(cfg: RecoveredCFG, proc: ProcedureRange,
               start_pc: int) -> int:
    """Instructions statically reachable from ``start_pc`` inside its
    procedure (bounded at :data:`FOOTPRINT_CAP`)."""
    first = cfg.block_at(start_pc)
    if first is None:
        return 0
    count = (first.end - start_pc) // INSTRUCTION_BYTES
    seen = {first.start}
    work = [s for s in first.successors]
    while work and count < FOOTPRINT_CAP:
        addr = work.pop()
        block = cfg.block_at(addr)
        if block is None or block.start in seen or block.start not in proc:
            continue
        seen.add(block.start)
        count += block.instructions
        work.extend(block.successors)
    return min(count, FOOTPRINT_CAP)
