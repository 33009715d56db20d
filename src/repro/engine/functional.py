"""Functional (architectural) executor for the repro ISA.

Executes a linked :class:`ProgramImage` instruction-at-a-time, producing
the dynamic instruction stream the timing models replay.  This is the
trace-driven substitute for the paper's execution-driven SimpleScalar
runs: the committed path is exact; wrong-path effects are approximated
in the timing layer.

Each static instruction is decoded once, the first time it executes,
into a :class:`_Decoded` entry of the engine's decode table: its
operands, fall-through pc and taken target bound, and a handler chosen
for its opcode (DESIGN §20).  Every later dynamic occurrence runs that
entry's handler.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator

from repro.engine.state import ArchState, to_signed
from repro.engine.stream import Stream, StreamRecord, new_arrays
from repro.isa import INSTRUCTION_BYTES, Instruction, Kind, Opcode, RA
from repro.program import ProgramImage

_MASK = 0xFFFF_FFFF
#: XOR-ing the sign bit maps signed 32-bit order onto unsigned order,
#: so a signed compare of two masked words needs no conversion.
_SIGN = 0x8000_0000


class ExecutionError(RuntimeError):
    """Raised on wild control flow or other architecturally fatal events."""


class FunctionalEngine:
    """Architectural interpreter.

    Use :meth:`run` to obtain a bounded :class:`Stream`, or iterate
    :meth:`steps` for lazy generation, one record at a time.  The
    engine stops at ``HALT`` or when the instruction budget is
    exhausted, whichever comes first.
    """

    def __init__(self, image: ProgramImage) -> None:
        self.image = image
        self.state = ArchState(initial_data=image.data)
        self.pc = image.entry
        self.halted = False
        self.instructions_executed = 0
        #: pc -> entry, filled on first execution.  Entries hold the
        #: state's containers, never the engine, so a dropped engine
        #: frees its table by reference counting alone.
        self._table: dict[int, _Decoded] = {}

    # ------------------------------------------------------------------
    def run(self, max_instructions: int) -> Stream:
        """Execute up to ``max_instructions``, returning the stream.

        Appends straight to the stream's arrays: no record is built per
        instruction.  A later call resumes where this one stopped.
        """
        pcs, taken_bits, mem_addrs, insts = new_arrays()
        table = self._table
        lookup = table.get
        budget = 0 if self.halted else max_instructions
        executed = 0
        pc = self.pc
        try:
            while executed < budget:
                entry = lookup(pc)
                if entry is None:
                    entry = table[pc] = _decode(self.image, self.state, pc)
                next_pc = entry.execute(entry)
                inst = entry.inst
                pcs.append(pc)
                insts.append(inst)
                taken_bits.append(entry.taken)
                mem_addrs.append(entry.mem_addr)
                executed += 1
                if next_pc == pc and inst.kind is Kind.HALT:
                    self.halted = True
                    break
                pc = next_pc
            pcs.append(pc)
        except OverflowError:
            raise ExecutionError(
                f"pc {pc:#x} outside the 32-bit address space") from None
        finally:
            self.pc = pc
            self.instructions_executed += executed
        return Stream(pcs, taken_bits, mem_addrs, insts)

    def steps(self) -> Iterator[StreamRecord]:
        """Lazily execute until ``HALT``."""
        while not self.halted:
            yield self.step()

    def step(self) -> StreamRecord:
        """Execute one instruction and return its stream record."""
        if self.halted:
            raise ExecutionError("engine is halted")
        return self.run(1)[0]


# ----------------------------------------------------------------------
# The decode table
# ----------------------------------------------------------------------
class _Decoded:
    """One static instruction, decoded for repeated execution.

    ``execute(entry)`` runs it on ``regs`` and ``memory`` and returns
    the next pc; it leaves the record's ``taken`` bit and ``mem_addr``
    on the entry.  One class for every opcode keeps the attribute reads
    in the handlers and the run loop monomorphic.
    """

    __slots__ = ("inst", "execute", "regs", "memory", "rd", "rs1", "rs2",
                 "imm", "fn", "fall", "target", "link", "targets", "taken",
                 "mem_addr")

    inst: Instruction
    execute: Callable[[_Decoded], int]
    regs: list[int]
    memory: dict[int, int]
    rd: int
    rs1: int
    rs2: int
    imm: int
    fn: Callable[[int, int], int]
    fall: int
    target: int
    link: int
    targets: range
    taken: int
    mem_addr: int


def _slt(a: int, b: int) -> int:
    return int(to_signed(a) < to_signed(b))


def _slti(a: int, imm: int) -> int:
    return int(to_signed(a) < imm)


def _sll(a: int, b: int) -> int:
    return a << (b & 31)


def _srl(a: int, b: int) -> int:
    return a >> (b & 31)


def _div(a: int, b: int) -> int:
    divisor = to_signed(b)
    return int(to_signed(a) / divisor) if divisor else 0


#: ``rd = fn(rs1, rs2 or imm)``, masked to 32 bits.  The bitwise
#: immediates need no ``to_unsigned``: the mask distributes over them.
_ALU_FNS: dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: operator.add, Opcode.ADDI: operator.add,
    Opcode.SUB: operator.sub, Opcode.MUL: operator.mul, Opcode.DIV: _div,
    Opcode.AND: operator.and_, Opcode.ANDI: operator.and_,
    Opcode.OR: operator.or_, Opcode.ORI: operator.or_,
    Opcode.XOR: operator.xor, Opcode.XORI: operator.xor,
    Opcode.SLT: _slt, Opcode.SLTI: _slti,
    Opcode.SLL: _sll, Opcode.SLLI: _sll,
    Opcode.SRL: _srl, Opcode.SRLI: _srl,
}

_BRANCH_TESTS: dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: operator.eq, Opcode.BNE: operator.ne,
    Opcode.BLT: lambda a, b: (a ^ _SIGN) < (b ^ _SIGN),
    Opcode.BGE: lambda a, b: (a ^ _SIGN) >= (b ^ _SIGN),
}


def _decode(image: ProgramImage, state: ArchState, pc: int) -> _Decoded:
    """The entry for the instruction at ``pc``, bound to ``state``."""
    try:
        inst = image.fetch(pc)
    except IndexError as exc:
        raise ExecutionError(str(exc)) from None
    op = inst.op
    kind = inst.kind
    entry = _Decoded()
    entry.inst = inst
    entry.regs = state.regs
    entry.memory = state.memory
    entry.rd, entry.rs1, entry.rs2 = inst.rd, inst.rs1, inst.rs2
    entry.imm = inst.imm
    entry.fall = pc + INSTRUCTION_BYTES
    entry.link = entry.fall & _MASK
    entry.taken = entry.mem_addr = 0
    if kind in (Kind.ALU, Kind.MUL, Kind.DIV):
        if inst.rd == 0:                # writes to r0 are dropped
            entry.execute = _fall_through
        elif op is Opcode.LUI:
            entry.imm = (inst.imm & 0xFFFF) << 16
            entry.execute = _load_immediate
        elif op is Opcode.SADD:
            entry.execute = _shift_add
        else:
            entry.fn = _ALU_FNS[op]
            entry.execute = (_register_op if op.meta.reads_rs2
                             else _immediate_op)
    elif kind is Kind.LOAD:
        entry.execute = _load_word
    elif kind is Kind.STORE:
        entry.execute = _store_word
    elif kind is Kind.BRANCH:
        entry.fn = _BRANCH_TESTS[op]
        entry.target = pc + inst.imm
        entry.execute = _branch
    elif kind in (Kind.JUMP, Kind.CALL):
        entry.target = inst.imm
        entry.execute = _call if kind is Kind.CALL else _jump
    elif kind in (Kind.CALL_INDIRECT, Kind.JUMP_INDIRECT):
        entry.targets = range(image.code_base, image.code_end,
                              INSTRUCTION_BYTES)
        if kind is Kind.CALL_INDIRECT:
            entry.rd = inst.rd or RA
            entry.execute = _indirect_call
        else:
            entry.execute = _indirect_jump
    elif kind is Kind.HALT:
        # The run loop stops on a HALT, which stays at its own pc.
        entry.target = pc
        entry.execute = _jump
    else:
        entry.execute = _fall_through
    return entry


# ----------------------------------------------------------------------
# Handlers: each returns the next pc
# ----------------------------------------------------------------------
def _fall_through(e: _Decoded) -> int:
    return e.fall


def _jump(e: _Decoded) -> int:
    return e.target


def _load_immediate(e: _Decoded) -> int:
    e.regs[e.rd] = e.imm
    return e.fall


def _register_op(e: _Decoded) -> int:
    regs = e.regs
    regs[e.rd] = e.fn(regs[e.rs1], regs[e.rs2]) & _MASK
    return e.fall


def _immediate_op(e: _Decoded) -> int:
    regs = e.regs
    regs[e.rd] = e.fn(regs[e.rs1], e.imm) & _MASK
    return e.fall


def _shift_add(e: _Decoded) -> int:
    regs = e.regs
    inst = e.inst
    regs[e.rd] = ((regs[e.rs1] << inst.sh1) + (regs[e.rs2] << inst.sh2)
                  + e.imm) & _MASK
    return e.fall


def _load_word(e: _Decoded) -> int:
    regs = e.regs
    e.mem_addr = addr = (regs[e.rs1] + e.imm) & _MASK
    if e.rd:
        regs[e.rd] = e.memory.get(addr & ~3, 0)
    return e.fall


def _store_word(e: _Decoded) -> int:
    regs = e.regs
    e.mem_addr = addr = (regs[e.rs1] + e.imm) & _MASK
    e.memory[addr & ~3] = regs[e.rs2]
    return e.fall


def _branch(e: _Decoded) -> int:
    regs = e.regs
    if e.fn(regs[e.rs1], regs[e.rs2]):
        e.taken = 1                 # even when the target is the fall-through
        return e.target
    e.taken = 0
    return e.fall


def _call(e: _Decoded) -> int:
    e.regs[RA] = e.link
    return e.target


def _indirect_call(e: _Decoded) -> int:
    regs = e.regs
    target = regs[e.rs1]            # read before the link is written
    regs[e.rd] = e.link
    return _checked(e, target)


def _indirect_jump(e: _Decoded) -> int:
    return _checked(e, e.regs[e.rs1])


def _checked(e: _Decoded, target: int) -> int:
    if target not in e.targets:
        raise ExecutionError(
            f"indirect transfer at {e.fall - INSTRUCTION_BYTES:#x} "
            f"to wild target {target:#x}")
    return target
