"""Unit tests for the functional execution engine."""

import gc
import itertools
import weakref

import pytest

from repro.engine import ArchState, ExecutionError, FunctionalEngine
from repro.engine.state import to_signed, to_unsigned
from repro.isa import INSTRUCTION_BYTES, RA, Instruction, Kind, Opcode, \
    assemble
from repro.program import ProgramImage
from repro.workloads import build_workload


def _image_from_asm(source: str, data: dict[int, int] | None = None,
                    base: int = 0x1000) -> ProgramImage:
    insts, labels = assemble(source, base=base)
    return ProgramImage(instructions=insts, code_base=base, entry=base,
                        labels=labels, data=data or {})


def _run(source: str, max_instructions: int = 10_000, data=None):
    engine = FunctionalEngine(_image_from_asm(source, data=data))
    stream = engine.run(max_instructions)
    return engine, stream


class TestArithmetic:
    def test_addi_and_add(self):
        engine, _ = _run("""
            addi r1, r0, 7
            addi r2, r0, 5
            add  r3, r1, r2
            halt
        """)
        assert engine.state.read(3) == 12

    def test_sub_wraps_to_32_bits(self):
        engine, _ = _run("""
            addi r1, r0, 0
            addi r2, r0, 1
            sub  r3, r1, r2
            halt
        """)
        assert engine.state.read(3) == 0xFFFF_FFFF
        assert to_signed(engine.state.read(3)) == -1

    def test_mul_div(self):
        engine, _ = _run("""
            addi r1, r0, 6
            addi r2, r0, 7
            mul  r3, r1, r2
            div  r4, r3, r2
            halt
        """)
        assert engine.state.read(3) == 42
        assert engine.state.read(4) == 6

    def test_div_by_zero_defined_as_zero(self):
        engine, _ = _run("""
            addi r1, r0, 5
            div  r2, r1, r0
            halt
        """)
        assert engine.state.read(2) == 0

    def test_shifts_and_logic(self):
        engine, _ = _run("""
            addi r1, r0, 3
            slli r2, r1, 4
            srli r3, r2, 2
            ori  r4, r2, 1
            andi r5, r4, 0xF
            xor  r6, r1, r1
            halt
        """)
        assert engine.state.read(2) == 48
        assert engine.state.read(3) == 12
        assert engine.state.read(4) == 49
        assert engine.state.read(5) == 1
        assert engine.state.read(6) == 0

    def test_lui_and_slt(self):
        engine, _ = _run("""
            lui  r1, 1
            slti r2, r0, 1
            slt  r3, r1, r0
            halt
        """)
        assert engine.state.read(1) == 0x1_0000
        assert engine.state.read(2) == 1
        assert engine.state.read(3) == 0

    def test_writes_to_r0_discarded(self):
        engine, _ = _run("""
            addi r0, r0, 99
            halt
        """)
        assert engine.state.read(0) == 0


class TestMemory:
    def test_store_load_round_trip(self):
        engine, _ = _run("""
            lui  r1, 64          # 0x400000 data base
            addi r2, r0, 1234
            sw   r2, 8(r1)
            lw   r3, 8(r1)
            halt
        """)
        assert engine.state.read(3) == 1234

    def test_initial_data_visible(self):
        engine, _ = _run("""
            lui r1, 64
            lw  r2, 0(r1)
            halt
        """, data={0x40_0000: 777})
        assert engine.state.read(2) == 777

    def test_uninitialised_memory_reads_zero(self):
        engine, _ = _run("""
            lui r1, 64
            lw  r2, 100(r1)
            halt
        """)
        assert engine.state.read(2) == 0


class TestControlFlow:
    def test_loop_executes_correct_iterations(self):
        engine, stream = _run("""
            addi r1, r0, 0
            addi r2, r0, 5
        loop:
            addi r1, r1, 1
            blt  r1, r2, loop
            halt
        """)
        assert engine.state.read(1) == 5
        branch_records = [r for r in stream if r.inst.is_conditional_branch]
        assert sum(r.taken for r in branch_records) == 4
        assert sum(not r.taken for r in branch_records) == 1

    def test_call_and_return(self):
        engine, stream = _run("""
            jal  double
            halt
        double:
            add  r1, r1, r1
            jr   ra
        """)
        returns = [r for r in stream if r.inst.is_return]
        assert len(returns) == 1
        # Return goes back to the instruction after the JAL.
        assert returns[0].next_pc == 0x1004

    def test_stream_next_pc_chains(self):
        _, stream = _run("""
            addi r1, r0, 3
        loop:
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
        """)
        for prev, cur in zip(stream, stream[1:]):
            assert prev.next_pc == cur.pc

    def test_wild_indirect_jump_raises(self):
        engine = FunctionalEngine(_image_from_asm("""
            addi r1, r0, 12
            jr   r1
        """))
        with pytest.raises(ExecutionError):
            engine.run(10)

    def test_halt_stops_engine(self):
        engine, stream = _run("halt")
        assert engine.halted
        assert len(stream) == 1
        with pytest.raises(ExecutionError):
            engine.step()

    def test_budget_bounds_run(self):
        _, stream = _run("""
        spin:
            addi r1, r1, 1
            j spin
        """, max_instructions=100)
        assert len(stream) == 100


class TestExecutionErrorPaths:
    def test_wild_indirect_call_raises_with_site_pc(self):
        engine = FunctionalEngine(_image_from_asm("""
            addi r1, r0, 12
            jalr ra, r1
        """))
        with pytest.raises(ExecutionError, match="0x1004.*wild target"):
            engine.run(10)

    def test_fall_off_code_segment_raises(self):
        # No halt: after the last instruction the PC leaves the code
        # segment and the next fetch must fail loudly, not wrap.
        engine = FunctionalEngine(_image_from_asm("addi r1, r0, 1"))
        with pytest.raises(ExecutionError, match="out of code segment"):
            engine.run(10)

    def test_direct_jump_out_of_segment_raises(self):
        engine = FunctionalEngine(_image_from_asm("""
            j 0x2000
        """))
        with pytest.raises(ExecutionError, match="out of code segment"):
            engine.run(10)

    def test_misaligned_indirect_target_raises(self):
        engine = FunctionalEngine(_image_from_asm("""
            addi r1, r0, 0x1002
            jr   r1
        """))
        with pytest.raises(ExecutionError, match="wild target"):
            engine.run(10)

    def test_budget_exhaustion_mid_call_is_resumable(self):
        # The budget runs out inside the callee: the engine is paused,
        # not halted, and stepping resumes exactly where it stopped.
        engine = FunctionalEngine(_image_from_asm("""
            jal  work
            halt
        work:
            addi r1, r1, 1
            addi r1, r1, 1
            jr   ra
        """))
        stream = engine.run(2)  # jal + first callee instruction
        assert len(stream) == 2
        assert not engine.halted
        assert engine.pc == 0x100C  # mid-callee
        resumed = engine.run(10)
        assert engine.halted
        assert resumed[-1].inst.op is Opcode.HALT
        assert engine.state.read(1) == 2

    def test_halt_inside_switch_target(self):
        # An indirect jump (non-return JR = switch dispatch) lands on
        # an arm whose first instruction is HALT: the engine must stop
        # there, and the final record's next_pc is the halt site itself.
        engine = FunctionalEngine(_image_from_asm("""
            addi r1, r0, 0x1010
            jr   r1
        arm0:
            addi r2, r0, 1
            halt
        arm1:
            halt
        """))
        stream = engine.run(10)
        assert engine.halted
        assert len(stream) == 3
        assert stream[-1].pc == 0x1010  # arm1, skipping arm0 entirely
        assert stream[-1].next_pc == stream[-1].pc
        assert engine.state.read(2) == 0
        with pytest.raises(ExecutionError, match="halted"):
            engine.step()


class TestHelpers:
    def test_signed_unsigned_round_trip(self):
        assert to_signed(to_unsigned(-5)) == -5
        assert to_unsigned(-1) == 0xFFFF_FFFF
        assert to_signed(0x7FFF_FFFF) == 0x7FFF_FFFF
        assert to_signed(0x8000_0000) == -0x8000_0000


class TestDecodeTable:
    def test_dropped_engine_frees_its_table_without_collection(self):
        image = build_workload("compress").image
        gc.collect()
        gc.disable()
        try:
            engine = FunctionalEngine(image)
            engine.run(2_000)
            engine_ref = weakref.ref(engine)
            del engine
            assert engine_ref() is None
            # Nothing the table held is left for the cycle collector.
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_each_static_instruction_is_decoded_once(self):
        engine, stream = _run("""
            addi r1, r0, 0
            addi r2, r0, 50
        loop:
            addi r1, r1, 1
            blt  r1, r2, loop
            halt
        """)
        assert len(stream) == 103
        assert len(engine._table) == 5


# ----------------------------------------------------------------------
# Opcode semantics against a reference interpreter
# ----------------------------------------------------------------------
def _reference_execute(state: ArchState, image: ProgramImage, pc: int,
                       inst: Instruction) -> tuple[bool, int, int, bool]:
    """One instruction as a plain if-chain over ``state``.

    Returns ``(taken, next_pc, mem_addr, halted)``; raises
    :class:`ExecutionError` for a wild indirect target.
    """
    op = inst.op
    read = state.read
    write = state.write
    fall = pc + INSTRUCTION_BYTES
    if op is Opcode.ADD:
        write(inst.rd, read(inst.rs1) + read(inst.rs2))
    elif op is Opcode.SUB:
        write(inst.rd, read(inst.rs1) - read(inst.rs2))
    elif op is Opcode.AND:
        write(inst.rd, read(inst.rs1) & read(inst.rs2))
    elif op is Opcode.OR:
        write(inst.rd, read(inst.rs1) | read(inst.rs2))
    elif op is Opcode.XOR:
        write(inst.rd, read(inst.rs1) ^ read(inst.rs2))
    elif op is Opcode.SLT:
        write(inst.rd,
              int(to_signed(read(inst.rs1)) < to_signed(read(inst.rs2))))
    elif op is Opcode.SLL:
        write(inst.rd, read(inst.rs1) << (read(inst.rs2) & 31))
    elif op is Opcode.SRL:
        write(inst.rd, read(inst.rs1) >> (read(inst.rs2) & 31))
    elif op is Opcode.ADDI:
        write(inst.rd, read(inst.rs1) + inst.imm)
    elif op is Opcode.ANDI:
        write(inst.rd, read(inst.rs1) & to_unsigned(inst.imm))
    elif op is Opcode.ORI:
        write(inst.rd, read(inst.rs1) | to_unsigned(inst.imm))
    elif op is Opcode.XORI:
        write(inst.rd, read(inst.rs1) ^ to_unsigned(inst.imm))
    elif op is Opcode.SLTI:
        write(inst.rd, int(to_signed(read(inst.rs1)) < inst.imm))
    elif op is Opcode.SLLI:
        write(inst.rd, read(inst.rs1) << (inst.imm & 31))
    elif op is Opcode.SRLI:
        write(inst.rd, read(inst.rs1) >> (inst.imm & 31))
    elif op is Opcode.LUI:
        write(inst.rd, (inst.imm & 0xFFFF) << 16)
    elif op is Opcode.SADD:
        write(inst.rd, (read(inst.rs1) << inst.sh1)
              + (read(inst.rs2) << inst.sh2) + inst.imm)
    elif op is Opcode.MUL:
        write(inst.rd, read(inst.rs1) * read(inst.rs2))
    elif op is Opcode.DIV:
        divisor = to_signed(read(inst.rs2))
        write(inst.rd, 0 if divisor == 0
              else int(to_signed(read(inst.rs1)) / divisor))
    elif op is Opcode.LW:
        addr = (read(inst.rs1) + inst.imm) & 0xFFFF_FFFF
        write(inst.rd, state.load(addr))
        return False, fall, addr, False
    elif op is Opcode.SW:
        addr = (read(inst.rs1) + inst.imm) & 0xFFFF_FFFF
        state.store(addr, read(inst.rs2))
        return False, fall, addr, False
    elif op is Opcode.HALT:
        return False, pc, 0, True
    elif inst.kind is Kind.BRANCH:
        a, b = to_signed(read(inst.rs1)), to_signed(read(inst.rs2))
        taken = {Opcode.BEQ: a == b, Opcode.BNE: a != b,
                 Opcode.BLT: a < b, Opcode.BGE: a >= b}[op]
        return taken, (pc + inst.imm) if taken else fall, 0, False
    elif op is Opcode.J:
        return False, inst.imm, 0, False
    elif op is Opcode.JAL:
        write(RA, fall)
        return False, inst.imm, 0, False
    elif op in (Opcode.JALR, Opcode.JR):
        target = read(inst.rs1)
        if op is Opcode.JALR:
            write(inst.rd if inst.rd else RA, fall)
        if target not in image:
            raise ExecutionError(
                f"indirect transfer at {pc:#x} to wild target {target:#x}")
        return False, target, 0, False
    else:
        assert op is Opcode.NOP
    return False, fall, 0, False


_BASE = 0x1000
#: The instruction under test sits mid-image, so short forward and
#: backward branch targets land on code.
_SITE = _BASE + 8 * INSTRUCTION_BYTES
_BOUNDARY = (0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
_IMMEDIATES = (0, 1, -1, 4, -8, 31, 33, 0x7FFF, -0x8000)
_DATA = 0x40_0000


def _register_pairs():
    return itertools.product(_BOUNDARY, repeat=2)


def _cases(op: Opcode):
    """``(inst, regs)`` pairs covering ``op``: boundary register values,
    ``rd = 0``, ``rd`` aliasing a source and negative immediates."""
    kind = op.meta.kind
    if op in (Opcode.NOP, Opcode.HALT):
        yield Instruction(op), {}
    elif op is Opcode.LUI:
        for imm in (*_IMMEDIATES, 0x1_2345):
            yield Instruction(op, rd=3, imm=imm), {}
        yield Instruction(op, rd=0, imm=5), {}
    elif op is Opcode.SADD:
        for (a, b), (sh1, sh2) in itertools.product(
                _register_pairs(), ((0, 0), (1, 3), (31, 2))):
            yield Instruction(op, rd=3, rs1=1, rs2=2, imm=-4, sh1=sh1,
                              sh2=sh2), {1: a, 2: b}
    elif kind in (Kind.ALU, Kind.MUL, Kind.DIV) and op.meta.reads_rs2:
        for a, b in itertools.chain(_register_pairs(),
                                    ((7, 2), (-7 & 0xFFFF_FFFF, 2),
                                     (7, -2 & 0xFFFF_FFFF), (35, 33))):
            yield Instruction(op, rd=3, rs1=1, rs2=2), {1: a, 2: b}
        yield Instruction(op, rd=0, rs1=1, rs2=2), {1: 6, 2: 7}
        yield Instruction(op, rd=1, rs1=1, rs2=1), {1: 0x8000_0001}
    elif kind in (Kind.ALU, Kind.MUL, Kind.DIV):
        for a, imm in itertools.product(_BOUNDARY, _IMMEDIATES):
            yield Instruction(op, rd=3, rs1=1, imm=imm), {1: a}
        yield Instruction(op, rd=0, rs1=1, imm=-1), {1: 6}
        yield Instruction(op, rd=1, rs1=1, imm=-3), {1: 2}
    elif kind in (Kind.LOAD, Kind.STORE):
        for base, imm in itertools.product(
                (_DATA, _DATA + 2, 0, 0xFFFF_FFFE), (0, 4, -4, 7, -1)):
            yield Instruction(op, rd=3, rs1=1, rs2=2, imm=imm), \
                {1: base, 2: 0xDEAD_BEEF}
        yield Instruction(op, rd=0, rs1=1, rs2=2, imm=8), {1: _DATA, 2: 9}
        yield Instruction(op, rd=1, rs1=1, rs2=1, imm=0), {1: _DATA}
    elif kind is Kind.BRANCH:
        for (a, b), imm in itertools.product(_register_pairs(),
                                             (-8, 4, 12)):
            yield Instruction(op, rs1=1, rs2=2, imm=imm), {1: a, 2: b}
    elif kind in (Kind.JUMP, Kind.CALL):
        for target in (_BASE, _SITE, _SITE + 4, 0x9_0000):
            yield Instruction(op, imm=target), {RA: 5}
    else:
        link = {Kind.CALL_INDIRECT: (0, 2, 5), Kind.JUMP_INDIRECT: (0,)}
        for rd, target in itertools.product(
                link[kind], (_BASE, _SITE + 12, _SITE + 2, 0x9_0000, 0)):
            yield Instruction(op, rd=rd, rs1=5, imm=0), {5: target}


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
def test_one_step_matches_the_reference_interpreter(op):
    cases = list(_cases(op))
    assert cases
    for inst, regs in cases:
        code = [Instruction(Opcode.NOP)] * 16
        code[(_SITE - _BASE) // INSTRUCTION_BYTES] = inst
        image = ProgramImage(instructions=code, code_base=_BASE,
                             entry=_SITE, data={_DATA: 11, _DATA + 4: 22,
                                                0xFFFF_FFFC: 33})
        engine = FunctionalEngine(image)
        reference = ArchState(initial_data=image.data)
        for reg, value in regs.items():
            engine.state.regs[reg] = reference.regs[reg] = value
        try:
            expected = _reference_execute(reference, image, _SITE, inst)
        except ExecutionError as exc:
            with pytest.raises(ExecutionError, match=str(exc)):
                engine.step()
            continue
        record = engine.step()
        taken, next_pc, mem_addr, halted = expected
        case = (inst, regs)
        assert engine.state.regs == reference.regs, case
        assert engine.state.memory == reference.memory, case
        assert (record.pc, record.inst) == (_SITE, inst), case
        assert record.next_pc == next_pc, case
        assert record.taken is taken, case
        assert record.mem_addr == mem_addr, case
        assert engine.halted is halted, case
        assert engine.pc == next_pc, case
        assert engine.instructions_executed == 1, case
