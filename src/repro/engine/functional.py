"""Functional (architectural) executor for the repro ISA.

Executes a linked :class:`ProgramImage` instruction-at-a-time, producing
the dynamic instruction stream the timing models replay.  This is the
trace-driven substitute for the paper's execution-driven SimpleScalar
runs: the committed path is exact; wrong-path effects are approximated
in the timing layer.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.state import ArchState, to_signed, to_unsigned
from repro.engine.stream import Stream, StreamRecord, new_arrays
from repro.isa import INSTRUCTION_BYTES, Instruction, Kind, Opcode, RA
from repro.program import ProgramImage


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
        self._mem_addr = 0

    # ------------------------------------------------------------------
    def run(self, max_instructions: int) -> Stream:
        """Execute up to ``max_instructions``, returning the stream.

        Appends straight to the stream's arrays: no record is built per
        instruction.  A later call resumes where this one stopped.
        """
        pcs, taken_bits, mem_addrs, insts = new_arrays()
        advance = self._advance
        try:
            while len(insts) < max_instructions and not self.halted:
                pc = self.pc
                inst, taken = advance()
                pcs.append(pc)
                insts.append(inst)
                taken_bits.append(taken)
                mem_addrs.append(self._mem_addr)
            pcs.append(self.pc)
        except OverflowError:
            raise ExecutionError(
                f"pc {self.pc:#x} outside the 32-bit address space") from None
        return Stream(pcs, taken_bits, mem_addrs, insts)

    def steps(self) -> Iterator[StreamRecord]:
        """Lazily execute until ``HALT``."""
        while not self.halted:
            yield self.step()

    # ------------------------------------------------------------------
    def step(self) -> StreamRecord:
        """Execute one instruction and return its stream record."""
        if self.halted:
            raise ExecutionError("engine is halted")
        pc = self.pc
        inst, taken = self._advance()
        return StreamRecord(pc=pc, inst=inst, taken=taken, next_pc=self.pc,
                            mem_addr=self._mem_addr)

    def _advance(self) -> tuple[Instruction, bool]:
        """Execute the instruction at ``self.pc``; returns it and whether
        it was a taken branch (its memory address is ``_mem_addr``)."""
        pc = self.pc
        try:
            inst = self.image.fetch(pc)
        except IndexError as exc:
            raise ExecutionError(str(exc)) from None
        self._mem_addr = 0
        taken, self.pc = self._execute(pc, inst)
        self.instructions_executed += 1
        return inst, taken

    # ------------------------------------------------------------------
    def _execute(self, pc: int, inst: Instruction) -> tuple[bool, int]:
        op = inst.op
        state = self.state
        read = state.read
        fall = pc + INSTRUCTION_BYTES

        if op is Opcode.ADD:
            state.write(inst.rd, read(inst.rs1) + read(inst.rs2))
        elif op is Opcode.SUB:
            state.write(inst.rd, read(inst.rs1) - read(inst.rs2))
        elif op is Opcode.AND:
            state.write(inst.rd, read(inst.rs1) & read(inst.rs2))
        elif op is Opcode.OR:
            state.write(inst.rd, read(inst.rs1) | read(inst.rs2))
        elif op is Opcode.XOR:
            state.write(inst.rd, read(inst.rs1) ^ read(inst.rs2))
        elif op is Opcode.SLT:
            state.write(inst.rd,
                        int(to_signed(read(inst.rs1)) <
                            to_signed(read(inst.rs2))))
        elif op is Opcode.SLL:
            state.write(inst.rd, read(inst.rs1) << (read(inst.rs2) & 31))
        elif op is Opcode.SRL:
            state.write(inst.rd, read(inst.rs1) >> (read(inst.rs2) & 31))
        elif op is Opcode.ADDI:
            state.write(inst.rd, read(inst.rs1) + inst.imm)
        elif op is Opcode.ANDI:
            state.write(inst.rd, read(inst.rs1) & to_unsigned(inst.imm))
        elif op is Opcode.ORI:
            state.write(inst.rd, read(inst.rs1) | to_unsigned(inst.imm))
        elif op is Opcode.XORI:
            state.write(inst.rd, read(inst.rs1) ^ to_unsigned(inst.imm))
        elif op is Opcode.SLTI:
            state.write(inst.rd, int(to_signed(read(inst.rs1)) < inst.imm))
        elif op is Opcode.SLLI:
            state.write(inst.rd, read(inst.rs1) << (inst.imm & 31))
        elif op is Opcode.SRLI:
            state.write(inst.rd, read(inst.rs1) >> (inst.imm & 31))
        elif op is Opcode.LUI:
            state.write(inst.rd, (inst.imm & 0xFFFF) << 16)
        elif op is Opcode.SADD:
            state.write(inst.rd,
                        (read(inst.rs1) << inst.sh1) +
                        (read(inst.rs2) << inst.sh2) + inst.imm)
        elif op is Opcode.MUL:
            state.write(inst.rd, read(inst.rs1) * read(inst.rs2))
        elif op is Opcode.DIV:
            divisor = to_signed(read(inst.rs2))
            if divisor == 0:
                state.write(inst.rd, 0)
            else:
                state.write(inst.rd,
                            int(to_signed(read(inst.rs1)) / divisor))
        elif op is Opcode.LW:
            self._mem_addr = (read(inst.rs1) + inst.imm) & 0xFFFF_FFFF
            state.write(inst.rd, state.load(self._mem_addr))
        elif op is Opcode.SW:
            self._mem_addr = (read(inst.rs1) + inst.imm) & 0xFFFF_FFFF
            state.store(self._mem_addr, read(inst.rs2))
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.halted = True
            return False, pc
        else:
            return self._execute_control(pc, inst)
        return False, fall

    def _execute_control(self, pc: int, inst: Instruction) -> tuple[bool, int]:
        op = inst.op
        state = self.state
        read = state.read
        fall = pc + INSTRUCTION_BYTES
        if inst.kind is Kind.BRANCH:
            a = to_signed(read(inst.rs1))
            b = to_signed(read(inst.rs2))
            if op is Opcode.BEQ:
                taken = a == b
            elif op is Opcode.BNE:
                taken = a != b
            elif op is Opcode.BLT:
                taken = a < b
            else:  # BGE
                taken = a >= b
            return taken, (pc + inst.imm) if taken else fall
        if op is Opcode.J:
            return False, inst.imm
        if op is Opcode.JAL:
            state.write(RA, fall)
            return False, inst.imm
        if op is Opcode.JALR:
            target = read(inst.rs1)
            state.write(inst.rd if inst.rd else RA, fall)
            return False, self._checked_target(pc, target)
        if op is Opcode.JR:
            return False, self._checked_target(pc, read(inst.rs1))
        raise ExecutionError(f"unhandled control op {op} at {pc:#x}")

    def _checked_target(self, pc: int, target: int) -> int:
        if target not in self.image:
            raise ExecutionError(
                f"indirect transfer at {pc:#x} to wild target {target:#x}")
        return target
