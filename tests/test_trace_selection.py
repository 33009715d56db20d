"""Unit tests for trace identity and the selection/alignment rules."""

import pytest

from repro.engine import FunctionalEngine
from repro.isa import Instruction, Opcode, assemble, ret
from repro.program import ProgramImage
from repro.trace import (
    MAX_TRACE_LENGTH,
    SelectionConfig,
    Trace,
    TraceBuilder,
    TraceID,
    traces_of_stream,
)


def _nop_entry(pc):
    inst = Instruction(Opcode.NOP)
    return pc, inst, False, pc + 4


def _stream_of(source: str, n: int = 100_000):
    insts, labels = assemble(source, base=0x1000)
    image = ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels)
    return FunctionalEngine(image).run(n)


class TestTraceID:
    def test_equality_and_hash(self):
        a = TraceID(0x1000, (True, False))
        b = TraceID(0x1000, (True, False))
        c = TraceID(0x1000, (False, False))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_str_rendering(self):
        assert "T" in str(TraceID(0x1000, (True,)))


class TestTraceInvariants:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace(trace_id=TraceID(0x1000, ()), instructions=(), pcs=(),
                  next_pc=0, ends_in_call=False, ends_in_return=False)

    def test_start_pc_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(trace_id=TraceID(0x1000, ()),
                  instructions=(Instruction(Opcode.NOP),), pcs=(0x2000,),
                  next_pc=0, ends_in_call=False, ends_in_return=False)

    def test_oversized_trace_rejected(self):
        insts = tuple(Instruction(Opcode.NOP) for _ in range(17))
        pcs = tuple(0x1000 + 4 * i for i in range(17))
        with pytest.raises(ValueError):
            Trace(trace_id=TraceID(0x1000, ()), instructions=insts, pcs=pcs,
                  next_pc=0, ends_in_call=False, ends_in_return=False)


class TestBuilderRules:
    def test_max_length_emits_at_16(self):
        builder = TraceBuilder()
        trace = None
        for i in range(MAX_TRACE_LENGTH):
            trace = builder.add(*_nop_entry(0x1000 + 4 * i))
        assert trace is not None
        assert len(trace) == MAX_TRACE_LENGTH

    def test_ends_at_return(self):
        builder = TraceBuilder()
        builder.add(*_nop_entry(0x1000))
        trace = builder.add(0x1004, ret(), False, 0x9000)
        assert trace is not None
        assert trace.ends_in_return
        assert trace.next_pc == 0x9000

    def test_ends_at_indirect_jump(self):
        builder = TraceBuilder()
        trace = builder.add(0x1000, Instruction(Opcode.JR, rs1=9), False,
                            0x2000)
        assert trace is not None
        assert not trace.ends_in_return

    def test_call_does_not_end_trace(self):
        builder = TraceBuilder()
        trace = builder.add(0x1000, Instruction(Opcode.JAL, imm=0x5000),
                            False, 0x5000)
        assert trace is None

    def test_flush_emits_partial(self):
        builder = TraceBuilder()
        builder.add(*_nop_entry(0x1000))
        trace = builder.flush()
        assert trace is not None and len(trace) == 1
        assert builder.flush() is None

    def test_outcome_vector_matches_branches(self):
        builder = TraceBuilder()
        builder.add(0x1000, Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=64),
                    True, 0x1040)
        builder.add(0x1040, Instruction(Opcode.BNE, rs1=1, rs2=2, imm=64),
                    False, 0x1044)
        trace = builder.add(0x1044, ret(), False, 0x9000)
        assert trace.trace_id.outcomes == (True, False)


class TestSharedPathMemo:
    """Traces that differ only in a trailing indirect's target share
    one path: one memo dict, one instruction tuple, one pc tuple."""

    @staticmethod
    def _emit_indirect(builder, target):
        builder.add(*_nop_entry(0x1000))
        return builder.add(0x1004, Instruction(Opcode.JR, rs1=9), False,
                           target)

    def test_indirect_targets_share_one_memo(self):
        builder = TraceBuilder()
        first = self._emit_indirect(builder, 0x2000)
        second = self._emit_indirect(builder, 0x3000)
        assert first is not second
        assert (first.next_pc, second.next_pc) == (0x2000, 0x3000)
        assert first.trace_id is second.trace_id
        assert second._memo is first._memo
        assert second.pcs is first.pcs
        assert second.instructions is first.instructions
        runs = first.line_runs(64)
        assert second.line_runs(64) is runs
        # The interned trace per (identity, next_pc) is unchanged.
        assert self._emit_indirect(builder, 0x3000) is second

    def test_partial_tail_with_other_pcs_keeps_its_own_memo(self):
        builder = TraceBuilder()
        full = self._emit_indirect(builder, 0x2000)
        builder.add(*_nop_entry(0x1000))
        tail = builder.flush()
        assert tail.partial and tail.trace_id == full.trace_id
        assert tail.pcs == (0x1000,)
        assert tail._memo is not full._memo
        assert tail.line_runs(64) == ((0x1000, 1),)
        assert full.line_runs(64) == ((0x1000, 2),)


class TestAlignmentHeuristic:
    def _fill_with_backward_branch(self, branch_index: int,
                                   align: int = 4) -> Trace:
        """Build a 16-entry buffer whose only backward branch sits at
        ``branch_index``; return the emitted (possibly truncated) trace."""
        builder = TraceBuilder(SelectionConfig(align_multiple=align))
        trace = None
        for i in range(MAX_TRACE_LENGTH):
            pc = 0x1000 + 4 * i
            if i == branch_index:
                inst = Instruction(Opcode.BNE, rs1=1, rs2=2, imm=-32)
                trace = builder.add(pc, inst, True, pc - 32)
            else:
                trace = builder.add(*_nop_entry(pc))
        return trace

    def test_truncation_lands_on_multiple_of_four(self):
        for branch_index in range(MAX_TRACE_LENGTH):
            trace = self._fill_with_backward_branch(branch_index)
            beyond = len(trace) - branch_index - 1
            assert beyond >= 0
            assert beyond % 4 == 0, (branch_index, len(trace))

    def test_no_backward_branch_means_no_truncation(self):
        builder = TraceBuilder()
        trace = None
        for i in range(MAX_TRACE_LENGTH):
            trace = builder.add(*_nop_entry(0x1000 + 4 * i))
        assert len(trace) == MAX_TRACE_LENGTH

    def test_alignment_disabled(self):
        trace = self._fill_with_backward_branch(branch_index=5, align=0)
        assert len(trace) == MAX_TRACE_LENGTH

    def test_leftover_starts_next_trace(self):
        builder = TraceBuilder(SelectionConfig(align_multiple=4))
        first = None
        for i in range(MAX_TRACE_LENGTH):
            pc = 0x1000 + 4 * i
            if i == 13:
                # A not-taken backward branch (loop exit): the stream
                # falls through, so the leftover is sequential.
                inst = Instruction(Opcode.BNE, rs1=1, rs2=2, imm=-32)
                first = builder.add(pc, inst, False, pc + 4)
            else:
                first = builder.add(*_nop_entry(pc))
        assert first is not None and len(first) == 14
        # Two leftover entries stay buffered and begin the next trace.
        assert len(builder) == 2
        assert builder.pending_start_pc == first.next_pc


class TestStreamPartition:
    SOURCE = """
        addi r2, r0, 6
    outer:
        addi r1, r0, 0
    inner:
        addi r1, r1, 1
        addi r3, r1, 0
        blt  r1, r2, inner
        jal  helper
        addi r2, r2, -1
        bne  r2, r0, outer
        halt
    helper:
        add  r4, r1, r2
        jr   ra
    """

    def test_traces_cover_stream_exactly(self):
        stream = _stream_of(self.SOURCE)
        traces = traces_of_stream(stream)
        flat_pcs = [pc for t in traces for pc in t.pcs]
        assert flat_pcs == [r.pc for r in stream]

    def test_traces_chain_by_next_pc(self):
        stream = _stream_of(self.SOURCE)
        traces = traces_of_stream(stream)
        for prev, cur in zip(traces, traces[1:]):
            assert prev.next_pc == cur.start_pc

    def test_identical_ids_have_identical_content(self):
        """The trace-identity invariant: same (start, outcomes) => same
        instructions.  This is what makes preconstruction alignment
        possible at all."""
        stream = _stream_of(self.SOURCE)
        seen: dict[TraceID, tuple] = {}
        for trace in traces_of_stream(stream):
            key = trace.trace_id
            if key in seen:
                assert seen[key] == trace.pcs
            else:
                seen[key] = trace.pcs

    def test_returns_end_traces(self):
        stream = _stream_of(self.SOURCE)
        for trace in traces_of_stream(stream):
            for inst in trace.instructions[:-1]:
                assert not inst.is_return
