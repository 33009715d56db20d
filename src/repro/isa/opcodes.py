"""Opcode definitions and static metadata for the repro RISC ISA.

Every opcode carries the metadata the rest of the system needs:

* its *kind* — how the control-flow / memory machinery must treat it;
* its *execution latency* in cycles, mirroring the MIPS R10000 latencies
  the paper's simulator uses (integer ALU 1, multiply 3, divide 20,
  load 2 on a data-cache hit);
* operand format — which of rd / rs1 / rs2 / imm are meaningful.

The ISA is deliberately SimpleScalar-flavoured: a small load/store RISC
set plus the fused shift-add operation (:data:`Opcode.SADD`) introduced
by the paper's *preprocessing* mechanism ("a new ALU [that] adds two
register operands, each of which can be shifted left by a small
immediate amount").  ``SADD`` is never emitted by the workload
generator; it is produced only by the ALU-fusion preprocessing pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.Enum):
    """Coarse behavioural class of an opcode."""

    ALU = "alu"                # register/immediate arithmetic & logic
    MUL = "mul"                # long-latency multiply
    DIV = "div"                # long-latency divide
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"          # conditional, direct, PC-relative
    JUMP = "jump"              # unconditional, direct, absolute target
    CALL = "call"              # unconditional, direct, writes link register
    CALL_INDIRECT = "call_indirect"  # JALR: target from register
    JUMP_INDIRECT = "jump_indirect"  # JR: target from register (includes RET)
    NOP = "nop"
    HALT = "halt"


class Opcode(enum.Enum):
    """The instruction set. Values are the assembly mnemonics."""

    # ALU register-register
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLT = "slt"        # set-less-than
    SLL = "sll"        # shift left logical (by rs2)
    SRL = "srl"        # shift right logical (by rs2)
    # ALU register-immediate
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SLLI = "slli"
    SRLI = "srli"
    LUI = "lui"        # load upper immediate
    # Fused shift-add produced by preprocessing (rd = (rs1<<sh1) + (rs2<<sh2) + imm)
    SADD = "sadd"
    # Long latency
    MUL = "mul"
    DIV = "div"
    # Memory
    LW = "lw"          # rd = mem[rs1 + imm]
    SW = "sw"          # mem[rs1 + imm] = rs2
    # Control transfer
    BEQ = "beq"        # branch if rs1 == rs2, target = pc + imm
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    J = "j"            # unconditional jump, absolute target = imm
    JAL = "jal"        # call: ra = pc + 4, jump to absolute imm
    JALR = "jalr"      # indirect call: rd = pc + 4, jump to rs1
    JR = "jr"          # indirect jump / return: jump to rs1
    # Misc
    NOP = "nop"
    HALT = "halt"

    #: This opcode's :class:`OpInfo` — the very object in
    #: :data:`OP_INFO`, attached to the member so a hot lookup reads an
    #: attribute instead of hashing the enum (``Enum.__hash__`` runs in
    #: Python).  Not an enum member: it has no value.
    meta: OpInfo


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    kind: Kind
    latency: int
    reads_rs1: bool
    reads_rs2: bool
    writes_rd: bool


_R = OpInfo(Kind.ALU, 1, True, True, True)
_I = OpInfo(Kind.ALU, 1, True, False, True)

OP_INFO: dict[Opcode, OpInfo] = {
    Opcode.ADD: _R, Opcode.SUB: _R, Opcode.AND: _R, Opcode.OR: _R,
    Opcode.XOR: _R, Opcode.SLT: _R, Opcode.SLL: _R, Opcode.SRL: _R,
    Opcode.ADDI: _I, Opcode.ANDI: _I, Opcode.ORI: _I, Opcode.XORI: _I,
    Opcode.SLTI: _I, Opcode.SLLI: _I, Opcode.SRLI: _I,
    Opcode.LUI: OpInfo(Kind.ALU, 1, False, False, True),
    Opcode.SADD: OpInfo(Kind.ALU, 1, True, True, True),
    Opcode.MUL: OpInfo(Kind.MUL, 3, True, True, True),
    Opcode.DIV: OpInfo(Kind.DIV, 20, True, True, True),
    Opcode.LW: OpInfo(Kind.LOAD, 2, True, False, True),
    Opcode.SW: OpInfo(Kind.STORE, 1, True, True, False),
    Opcode.BEQ: OpInfo(Kind.BRANCH, 1, True, True, False),
    Opcode.BNE: OpInfo(Kind.BRANCH, 1, True, True, False),
    Opcode.BLT: OpInfo(Kind.BRANCH, 1, True, True, False),
    Opcode.BGE: OpInfo(Kind.BRANCH, 1, True, True, False),
    Opcode.J: OpInfo(Kind.JUMP, 1, False, False, False),
    Opcode.JAL: OpInfo(Kind.CALL, 1, False, False, True),
    Opcode.JALR: OpInfo(Kind.CALL_INDIRECT, 1, True, False, True),
    Opcode.JR: OpInfo(Kind.JUMP_INDIRECT, 1, True, False, False),
    Opcode.NOP: OpInfo(Kind.NOP, 1, False, False, False),
    Opcode.HALT: OpInfo(Kind.HALT, 1, False, False, False),
}

for _op, _meta in OP_INFO.items():
    _op.meta = _meta
del _op, _meta

#: Opcodes that unconditionally or conditionally redirect the PC.
CONTROL_KINDS = frozenset({
    Kind.BRANCH, Kind.JUMP, Kind.CALL, Kind.CALL_INDIRECT, Kind.JUMP_INDIRECT,
})

#: Control transfers whose target is encoded in the instruction itself,
#: i.e. resolvable by the preconstruction engine from static code alone.
DIRECT_CONTROL_KINDS = frozenset({Kind.BRANCH, Kind.JUMP, Kind.CALL})

#: Control transfers whose target comes from a register.  The paper's
#: preconstruction algorithm terminates path exploration at these
#: (unless the matching call was observed inside the region, for RET).
INDIRECT_CONTROL_KINDS = frozenset({Kind.CALL_INDIRECT, Kind.JUMP_INDIRECT})


#: Canonical opcode ordering for array-coded program representations
#: (:mod:`repro.vector`): the integer code of an opcode is its index
#: here.  Definition order of the enum, so codes are stable as long as
#: opcodes are only ever appended.
OPCODES: tuple[Opcode, ...] = tuple(Opcode)

#: Inverse of :data:`OPCODES` — opcode to integer code.
OPCODE_INDEX: dict[Opcode, int] = {op: i for i, op in enumerate(OPCODES)}


def info(op: Opcode) -> OpInfo:
    """Return the :class:`OpInfo` metadata for ``op``."""
    return OP_INFO[op]
