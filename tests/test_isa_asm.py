"""Unit tests for the assembler / disassembler."""

import pytest

from repro.isa import AsmError, Opcode, assemble, disassemble


class TestAssemble:
    def test_simple_program(self):
        insts, labels = assemble("""
            addi r1, r0, 10
            add  r2, r1, r1
            halt
        """)
        assert len(insts) == 3
        assert insts[0].op is Opcode.ADDI
        assert insts[0].imm == 10
        assert insts[2].op is Opcode.HALT
        assert labels == {}

    def test_label_branch_is_pc_relative(self):
        insts, labels = assemble("""
        loop:
            addi r1, r1, 1
            blt  r1, r2, loop
            halt
        """, base=0x1000)
        assert labels["loop"] == 0x1000
        branch = insts[1]
        # branch sits at 0x1004; taken target 0x1000 -> imm = -4
        assert branch.imm == -4
        assert branch.is_backward_branch()

    def test_label_call_is_absolute(self):
        insts, labels = assemble("""
            jal helper
            halt
        helper:
            jr ra
        """, base=0x2000)
        assert insts[0].imm == labels["helper"] == 0x2008
        assert insts[2].is_return

    def test_memory_operands(self):
        insts, _ = assemble("""
            lw r1, 8(r2)
            sw r1, -4(r3)
        """)
        lw, sw = insts
        assert (lw.rd, lw.rs1, lw.imm) == (1, 2, 8)
        assert (sw.rs2, sw.rs1, sw.imm) == (1, 3, -4)

    def test_comments_and_blank_lines_ignored(self):
        insts, _ = assemble("""
            # leading comment

            nop   # trailing comment
        """)
        assert len(insts) == 1

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(AsmError):
            assemble("frobnicate r1, r2, r3")

    def test_undefined_label_raises(self):
        with pytest.raises(AsmError):
            assemble("j nowhere")

    def test_sadd_rejected_in_source(self):
        with pytest.raises(AsmError):
            assemble("sadd r1, r2, r3")

    def test_operand_arity_errors(self):
        with pytest.raises(AsmError):
            assemble("beq r1, r2")
        with pytest.raises(AsmError):
            assemble("jal a, b\na:")


class TestRoundTrip:
    def test_disassemble_reassembles_identically(self):
        source = """
            addi r1, r0, 5
            lui  r4, 16
            lw   r2, 0(r1)
            sw   r2, 4(r1)
            mul  r3, r1, r2
            beq  r1, r2, 8
            jr   ra
            nop
            halt
        """
        insts, _ = assemble(source)
        text = disassemble(insts)
        again, _ = assemble(text)
        assert again == insts
