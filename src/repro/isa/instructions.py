"""The :class:`Instruction` container and its control-flow helpers.

Instructions are immutable dataclasses.  The program image assigns each
instruction a byte address (PC); instructions are 4 bytes, so sequential
execution advances the PC by :data:`INSTRUCTION_BYTES`.

Control-flow target conventions:

* Conditional branches (``BEQ``/``BNE``/``BLT``/``BGE``) are PC-relative:
  the taken target is ``pc + imm``.  A *backward branch* (``imm < 0``)
  is the loop-closing cue the preconstruction engine watches for.
* ``J`` and ``JAL`` carry an absolute target in ``imm``.
* ``JR`` / ``JALR`` take their target from ``rs1`` and are statically
  unresolvable; ``JR ra`` is the idiomatic procedure return
  (:meth:`Instruction.is_return`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.isa.opcodes import (
    CONTROL_KINDS,
    DIRECT_CONTROL_KINDS,
    INDIRECT_CONTROL_KINDS,
    Kind,
    Opcode,
)
from repro.isa.registers import RA, ZERO, register_name

INSTRUCTION_BYTES = 4
"""Size of one instruction in bytes (PC stride)."""


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    ``sh1``/``sh2`` are only meaningful for the fused :data:`Opcode.SADD`
    operation produced by the preprocessing pass (left-shift amounts for
    the two register operands).

    The classification attributes (``kind``, ``latency``, ``is_*``) are
    computed once at decode: the timing simulators consult them per
    *dynamic* instruction, so deriving them from the opcode's
    :data:`OP_INFO` entry on every access would put two lookups on the
    hottest path in the repository.  They are plain precomputed attributes, excluded from
    equality/hash, and recomputed by ``dataclasses.replace``.
    """

    op: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    sh1: int = 0
    sh2: int = 0

    # ------------------------------------------------------------------
    # Precomputed classification (decode-time, not per dynamic use)
    # ------------------------------------------------------------------
    kind: Kind = field(init=False, compare=False, repr=False)
    latency: int = field(init=False, compare=False, repr=False)
    #: True for any instruction that may redirect the PC.
    is_control: bool = field(init=False, compare=False, repr=False)
    is_conditional_branch: bool = field(init=False, compare=False,
                                        repr=False)
    #: True for direct and indirect calls (they push a return point).
    is_call: bool = field(init=False, compare=False, repr=False)
    #: True for ``JR ra`` — the idiomatic procedure return.
    is_return: bool = field(init=False, compare=False, repr=False)
    #: True when the target comes from a register (statically opaque).
    is_indirect: bool = field(init=False, compare=False, repr=False)
    is_direct_control: bool = field(init=False, compare=False, repr=False)
    #: True for a conditional branch whose taken target precedes it.
    is_backward: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        meta = self.op.meta
        kind = meta.kind
        setter = object.__setattr__
        setter(self, "kind", kind)
        setter(self, "latency", meta.latency)
        setter(self, "is_control", kind in CONTROL_KINDS)
        setter(self, "is_conditional_branch", kind is Kind.BRANCH)
        setter(self, "is_call", kind is Kind.CALL
               or kind is Kind.CALL_INDIRECT)
        setter(self, "is_return",
               self.op is Opcode.JR and self.rs1 == RA)
        setter(self, "is_indirect", kind in INDIRECT_CONTROL_KINDS)
        setter(self, "is_direct_control", kind in DIRECT_CONTROL_KINDS)
        setter(self, "is_backward",
               kind is Kind.BRANCH and self.imm < 0)

    # ------------------------------------------------------------------
    # Target computation
    # ------------------------------------------------------------------
    def is_backward_branch(self) -> bool:
        """True for a conditional branch whose taken target precedes it."""
        return self.is_backward

    def taken_target(self, pc: int) -> Optional[int]:
        """Static taken-path target, or ``None`` when register-indirect."""
        if self.is_conditional_branch:
            return pc + self.imm
        if self.kind in (Kind.JUMP, Kind.CALL):
            return self.imm
        if self.is_indirect:
            return None
        return None

    def fall_through(self, pc: int) -> int:
        """Address of the sequentially next instruction."""
        return pc + INSTRUCTION_BYTES

    # ------------------------------------------------------------------
    # Register usage (for dependence analysis / renaming)
    # ------------------------------------------------------------------
    def source_registers(self) -> tuple[int, ...]:
        """Architectural registers read, with the hardwired zero removed."""
        meta = self.op.meta
        sources = []
        if meta.reads_rs1 and self.rs1 != ZERO:
            sources.append(self.rs1)
        if meta.reads_rs2 and self.rs2 != ZERO:
            sources.append(self.rs2)
        return tuple(sources)

    def destination_register(self) -> Optional[int]:
        """Architectural register written, or ``None`` (writes to r0 discard)."""
        meta = self.op.meta
        if meta.writes_rd and self.rd != ZERO:
            return self.rd
        return None

    # ------------------------------------------------------------------
    # Rewriting (used by preprocessing passes)
    # ------------------------------------------------------------------
    def with_fields(self, **changes) -> "Instruction":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return format_instruction(self)


def format_instruction(inst: Instruction) -> str:
    """Render ``inst`` in assembly syntax (round-trips through the asm parser)."""
    op = inst.op
    n = register_name
    if op in (Opcode.NOP, Opcode.HALT):
        return op.value
    if op is Opcode.SADD:
        return (f"sadd {n(inst.rd)}, {n(inst.rs1)}<<{inst.sh1}, "
                f"{n(inst.rs2)}<<{inst.sh2}, {inst.imm}")
    kind = inst.kind
    if kind is Kind.BRANCH:
        return f"{op.value} {n(inst.rs1)}, {n(inst.rs2)}, {inst.imm}"
    if kind is Kind.JUMP:
        return f"j {inst.imm}"
    if kind is Kind.CALL:
        return f"jal {inst.imm}"
    if kind is Kind.CALL_INDIRECT:
        return f"jalr {n(inst.rd)}, {n(inst.rs1)}"
    if kind is Kind.JUMP_INDIRECT:
        return f"jr {n(inst.rs1)}"
    if op is Opcode.LW:
        return f"lw {n(inst.rd)}, {inst.imm}({n(inst.rs1)})"
    if op is Opcode.SW:
        return f"sw {n(inst.rs2)}, {inst.imm}({n(inst.rs1)})"
    if op is Opcode.LUI:
        return f"lui {n(inst.rd)}, {inst.imm}"
    meta = op.meta
    if meta.reads_rs2:
        return f"{op.value} {n(inst.rd)}, {n(inst.rs1)}, {n(inst.rs2)}"
    return f"{op.value} {n(inst.rd)}, {n(inst.rs1)}, {inst.imm}"


# Convenience constructors used heavily by the generator and tests.
def nop() -> Instruction:
    return Instruction(Opcode.NOP)


def halt() -> Instruction:
    return Instruction(Opcode.HALT)


def ret() -> Instruction:
    """``JR ra`` — procedure return."""
    return Instruction(Opcode.JR, rs1=RA)
