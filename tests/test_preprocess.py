"""Tests for the preprocessing passes (constprop, fusion, scheduling)."""

from repro.engine.functional import FunctionalEngine
from repro.isa import Instruction, Opcode, assemble
from repro.preprocess import (
    Preprocessor,
    build_dependence_graph,
    fuse_shift_adds,
    propagate_constants,
    schedule_trace,
)
from repro.program import ProgramImage
from repro.trace import traces_of_stream


def _alu_state_after(instructions, initial=None) -> list[int]:
    """Execute a straight-line ALU/memory sequence and return registers."""
    insts = list(instructions) + [Instruction(Opcode.HALT)]
    image = ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000)
    engine = FunctionalEngine(image)
    if initial:
        for reg, value in initial.items():
            engine.state.write(reg, value)
    engine.run(len(insts) + 1)
    return list(engine.state.regs)


def _parse(source: str):
    insts, _ = assemble(source)
    return tuple(insts)


class TestConstantPropagation:
    def test_folds_immediate_chain(self):
        seq = _parse("""
            addi r1, r0, 10
            addi r2, r1, 5
            add  r3, r1, r2
        """)
        folded = propagate_constants(seq)
        assert folded[1] == Instruction(Opcode.ADDI, rd=2, rs1=0, imm=15)
        assert folded[2] == Instruction(Opcode.ADDI, rd=3, rs1=0, imm=25)

    def test_preserves_semantics(self):
        seq = _parse("""
            addi r1, r0, 12
            slli r2, r1, 2
            ori  r3, r2, 1
            xor  r4, r3, r1
            sub  r5, r4, r2
        """)
        assert _alu_state_after(seq) == _alu_state_after(
            propagate_constants(seq))

    def test_unknown_inputs_left_alone(self):
        seq = _parse("""
            add  r3, r1, r2
            addi r4, r3, 1
        """)
        assert propagate_constants(seq) == seq

    def test_loads_invalidate_knowledge(self):
        seq = _parse("""
            addi r1, r0, 4
            lw   r1, 0(r2)
            addi r3, r1, 1
        """)
        folded = propagate_constants(seq)
        assert folded[2] == seq[2]  # r1 no longer constant

    def test_removes_dependence_height(self):
        seq = _parse("""
            addi r1, r0, 1
            addi r2, r1, 1
            addi r3, r2, 1
            addi r4, r3, 1
        """)
        before = build_dependence_graph(seq).depth()
        after = build_dependence_graph(propagate_constants(seq)).depth()
        assert after < before


class TestAluFusion:
    def test_fuses_shift_add(self):
        seq = _parse("""
            slli r2, r1, 2
            add  r3, r2, r4
        """)
        fused = fuse_shift_adds(seq)
        assert fused[1].op is Opcode.SADD
        assert fused[1].rs1 == 1 and fused[1].sh1 == 2
        assert fused[1].rs2 == 4

    def test_fused_semantics_match(self):
        seq = _parse("""
            slli r2, r1, 2
            add  r3, r2, r4
            addi r5, r2, 7
        """)
        initial = {1: 9, 4: 100}
        assert (_alu_state_after(seq, initial)
                == _alu_state_after(fuse_shift_adds(seq), initial))

    def test_source_redefinition_blocks_fusion(self):
        seq = _parse("""
            slli r2, r1, 2
            addi r1, r1, 1
            add  r3, r2, r4
        """)
        fused = fuse_shift_adds(seq)
        assert fused[2].op is Opcode.ADD  # r1 changed; cannot fuse

    def test_large_shift_not_fused(self):
        seq = _parse("""
            slli r2, r1, 8
            add  r3, r2, r4
        """)
        assert fuse_shift_adds(seq)[1].op is Opcode.ADD

    def test_reduces_dependence_height(self):
        seq = _parse("""
            slli r2, r1, 2
            add  r3, r2, r4
        """)
        before = build_dependence_graph(seq).depth()
        after = build_dependence_graph(fuse_shift_adds(seq)).depth()
        assert after < before


class TestScheduler:
    def test_respects_raw_dependencies(self):
        seq = _parse("""
            addi r1, r0, 1
            addi r2, r1, 1
            addi r3, r0, 5
            addi r4, r3, 5
        """)
        scheduled = schedule_trace(seq)
        positions = {inst: i for i, inst in enumerate(scheduled)}
        assert positions[seq[0]] < positions[seq[1]]
        assert positions[seq[2]] < positions[seq[3]]

    def test_memory_order_preserved(self):
        seq = _parse("""
            sw r1, 0(r9)
            lw r2, 0(r9)
            sw r3, 4(r9)
        """)
        scheduled = schedule_trace(seq)
        mem = [inst for inst in scheduled if inst.op in (Opcode.SW, Opcode.LW)]
        assert mem == list(seq)

    def test_control_stays_last(self):
        seq = _parse("""
            addi r1, r0, 1
            addi r2, r0, 2
            jr   ra
        """)
        assert schedule_trace(seq)[-1].op is Opcode.JR

    def test_is_permutation(self):
        seq = _parse("""
            addi r1, r0, 1
            mul  r2, r1, r1
            addi r3, r0, 3
            add  r4, r3, r3
            xor  r5, r4, r3
        """)
        assert sorted(map(str, schedule_trace(seq))) == sorted(map(str, seq))

    def test_hoists_critical_chain(self):
        """The long-latency chain head is scheduled before independent
        cheap work that originally preceded it."""
        seq = _parse("""
            addi r1, r0, 1
            addi r2, r0, 2
            addi r3, r0, 3
            mul  r4, r9, r9
            mul  r5, r4, r4
            mul  r6, r5, r5
        """)
        scheduled = schedule_trace(seq)
        assert scheduled[0].op is Opcode.MUL


class TestPreprocessorPipeline:
    def test_execution_view_matches_length(self):
        workload_source = """
            addi r1, r0, 3
        loop:
            slli r2, r1, 2
            add  r3, r2, r1
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
        """
        insts, labels = assemble(workload_source, base=0x1000)
        image = ProgramImage(instructions=insts, code_base=0x1000,
                            entry=0x1000, labels=labels)
        stream = FunctionalEngine(image).run(50)
        traces = traces_of_stream(stream)
        for trace in traces:
            view = Preprocessor.process(trace)
            assert len(view) == len(trace.instructions)
            assert view == Preprocessor.process(trace)  # a pure function
