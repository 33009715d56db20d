"""The struct-of-arrays committed stream (:class:`repro.engine.Stream`).

``FunctionalEngine.run`` appends straight to the stream's arrays; the
record-at-a-time ``steps()`` generator is the reference it must agree
with, record for record and in everything built from the stream.
"""

import dataclasses
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionError, FunctionalEngine, Stream, StreamRecord
from repro.isa import Opcode, assemble
from repro.program import ProgramImage
from repro.trace import traces_of_stream
from repro.workloads import build_workload, fuzz_profile, generate

_IMAGES: dict[int, ProgramImage] = {}


def _fuzz_image(seed: int) -> ProgramImage:
    if seed not in _IMAGES:
        _IMAGES[seed] = generate(fuzz_profile(seed)).image
    return _IMAGES[seed]


def _reference(image: ProgramImage, n: int) -> list[StreamRecord]:
    return list(islice(FunctionalEngine(image).steps(), n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 11), budget=st.integers(1, 3_000),
       split=st.floats(0.0, 1.0), bounds=st.tuples(
           st.integers(-3_500, 3_500), st.integers(-3_500, 3_500)))
def test_run_agrees_with_steps(seed, budget, split, bounds):
    image = _fuzz_image(seed)
    records = _reference(image, budget)
    stream = FunctionalEngine(image).run(budget)
    assert isinstance(stream, Stream)

    # Record for record, negative indexes and slices included.
    assert len(stream) == len(records)
    assert list(stream) == records
    n = len(records)
    for i in (0, n // 2, n - 1, -1, -n):
        assert stream[i] == records[i]
    start, stop = bounds
    part = stream[start:stop]
    assert isinstance(part, Stream)
    assert list(part) == records[start:stop]
    assert part == Stream.from_records(records[start:stop])

    # The trace partition.
    assert traces_of_stream(stream) == traces_of_stream(records)

    # Per-occurrence memory-address slices, as the processor cuts them.
    offset = 0
    for trace in traces_of_stream(stream):
        size = len(trace)
        assert list(stream.mem_addrs[offset:offset + size]) == [
            record.mem_addr for record in records[offset:offset + size]]
        offset += size
    assert offset == n

    # A second run() resumes where the first stopped.
    engine = FunctionalEngine(image)
    first = engine.run(int(budget * split))
    second = engine.run(budget - len(first))
    assert list(first) + list(second) == records
    assert engine.instructions_executed == n


class TestStreamProtocol:
    SOURCE = """
        addi r1, r0, 3
        addi r2, r0, 0x100
    loop:
        sw   r1, 0(r2)
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """

    @pytest.fixture(scope="class")
    def image(self):
        insts, labels = assemble(self.SOURCE, base=0x1000)
        return ProgramImage(instructions=insts, code_base=0x1000,
                            entry=0x1000, labels=labels)

    def test_from_records_round_trip(self, image):
        stream = FunctionalEngine(image).run(100)
        records = list(stream)
        assert records == _reference(image, 100)
        packed = Stream.from_records(records)
        assert packed == stream
        assert list(packed) == records
        assert packed.pcs == stream.pcs

    def test_halt_keeps_next_pc(self, image):
        stream = FunctionalEngine(image).run(100)
        assert stream[-1].inst.op is Opcode.HALT
        assert stream.pcs[-1] == stream.pcs[-2] == stream[-1].pc
        assert stream[-1].next_pc == stream[-1].pc

    def test_arrays_hold_the_record_fields(self, image):
        stream = FunctionalEngine(image).run(100)
        stores = [r for r in stream if r.mem_addr]
        assert [r.mem_addr for r in stores] == [0x100, 0x100, 0x100]
        taken = [r.taken for r in stream if r.inst.is_conditional_branch]
        assert taken == [True, True, False]
        assert all(type(r.taken) is bool for r in stream)

    def test_from_records_rejects_a_broken_chain(self, image):
        records = list(FunctionalEngine(image).run(100))
        records[3] = dataclasses.replace(records[3],
                                         next_pc=records[3].pc + 8)
        with pytest.raises(ValueError, match="record 4 .* does not follow"):
            Stream.from_records(records)

    def test_empty_streams(self, image):
        engine = FunctionalEngine(image)
        engine.run(100)
        assert engine.halted
        empty = engine.run(10)
        assert len(empty) == 0 and list(empty) == []
        assert empty == Stream.from_records([])
        assert len(FunctionalEngine(image).run(0)) == 0

    def test_index_and_slice_errors(self, image):
        stream = FunctionalEngine(image).run(100)
        with pytest.raises(IndexError):
            stream[len(stream)]
        with pytest.raises(IndexError):
            stream[-len(stream) - 1]
        with pytest.raises(ValueError, match="contiguous"):
            stream[::2]
        assert stream[:] is stream
        assert len(stream[5:2]) == 0

    def test_budget_ending_on_a_wild_jump_raises(self):
        # The trailing pc must fit its 32-bit slot: a jump out of the
        # address space fails with ExecutionError, as the next fetch would.
        insts, labels = assemble("j -8", base=0x1000)
        image = ProgramImage(instructions=insts, code_base=0x1000,
                             entry=0x1000, labels=labels)
        with pytest.raises(ExecutionError, match="32-bit address space"):
            FunctionalEngine(image).run(1)

    def test_mismatched_arrays_rejected(self, image):
        stream = FunctionalEngine(image).run(100)
        with pytest.raises(ValueError, match="disagree"):
            Stream(stream.pcs[1:], stream.taken, stream.mem_addrs,
                   stream.insts)


def test_stream_memory_per_instruction():
    """A 20k-instruction gcc stream costs at most 24 bytes per
    instruction (a list of records cost about 96)."""
    image = build_workload("gcc").image
    engine = FunctionalEngine(image)
    tracemalloc.start()
    try:
        stream = engine.run(20_000)
        del engine  # its architectural state is not the stream's cost
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream) == 20_000
    assert allocated / len(stream) <= 24
