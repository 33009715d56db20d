"""Static analyses over linked program images.

These are used by the workload generator's self-checks and by tests:
reachability from the entry point, static branch inventory (forward vs
backward), and footprint statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.isa import INSTRUCTION_BYTES, Kind
from repro.program.image import ProgramImage


@dataclass(frozen=True)
class StaticStats:
    """Summary statistics of a program image."""

    instructions: int
    conditional_branches: int
    backward_branches: int
    calls: int
    indirect_jumps: int
    returns: int
    procedures_reached: int


def instruction_successors(image: ProgramImage, pc: int,
                           indirect_targets: tuple[int, ...] = (),
                           ) -> tuple[int, ...]:
    """Static may-successor addresses of the instruction at ``pc``.

    The one-step successor relation both the conservative reachability
    walk below and the static trace predictor
    (:mod:`repro.static.predictor`) traverse:

    * plain instructions fall through;
    * branches yield taken target then fall-through;
    * direct jumps/calls yield their absolute target (a call *enters*
      the callee — the post-call return point is the callee's business,
      via its returns);
    * indirect transfers yield ``indirect_targets`` (the caller's
      resolution of the feeding table — conservative or exact);
    * returns and ``HALT`` yield nothing (return edges belong to call
      sites, matching the constructor's walk).

    Addresses outside the image are *not* filtered — running off the
    code segment is a finding the verifier owns, and callers decide
    how to treat it.
    """
    inst = image.try_fetch(pc)
    if inst is None:
        return ()
    kind = inst.kind
    if kind is Kind.HALT:
        return ()
    if kind is Kind.JUMP or kind is Kind.CALL:
        return (inst.imm,)
    if kind is Kind.BRANCH:
        return (pc + inst.imm, pc + INSTRUCTION_BYTES)
    if kind is Kind.CALL_INDIRECT:
        return tuple(indirect_targets)
    if kind is Kind.JUMP_INDIRECT:
        if inst.is_return:
            return ()
        return tuple(indirect_targets)
    return (pc + INSTRUCTION_BYTES,)


def reachable_addresses(image: ProgramImage) -> set[int]:
    """Instruction addresses reachable from the entry point.

    Register-indirect jumps/calls are resolved through the data segment
    relocations: any data word holding a code address is treated as a
    potential target (a conservative over-approximation, fine for the
    generator's self-checks).  Returns are handled via call-site
    fall-through edges.
    """
    indirect = tuple(sorted({value for value in image.data.values()
                             if value in image}))
    seen: set[int] = set()
    work: deque[int] = deque([image.entry])
    while work:
        pc = work.popleft()
        if pc in seen or pc not in image:
            continue
        seen.add(pc)
        inst = image.fetch(pc)
        work.extend(instruction_successors(image, pc, indirect))
        # Return edges come from call sites: every call's fall-through
        # is reachable once some callee return transfers back.
        if inst.is_call:
            work.append(pc + INSTRUCTION_BYTES)
    return seen


def static_stats(image: ProgramImage) -> StaticStats:
    """Inventory of control-flow instruction classes in ``image``."""
    cond = back = calls = indirect = rets = 0
    for pc in image.addresses():
        inst = image.fetch(pc)
        if inst.is_conditional_branch:
            cond += 1
            if inst.is_backward_branch():
                back += 1
        elif inst.is_call:
            calls += 1
        elif inst.is_return:
            rets += 1
        elif inst.is_indirect:
            indirect += 1
    reached = reachable_addresses(image)
    procs = sum(1 for name, addr in image.labels.items()
                if ":" not in name and addr in reached)
    return StaticStats(
        instructions=image.code_size,
        conditional_branches=cond,
        backward_branches=back,
        calls=calls,
        indirect_jumps=indirect,
        returns=rets,
        procedures_reached=procs,
    )

