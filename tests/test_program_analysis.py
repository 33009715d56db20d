"""Tests for program-image access and the static analyses."""

import pytest

from repro.isa import Opcode, assemble
from repro.program import ProgramImage, reachable_addresses, static_stats
from repro.static import recover_call_graph


def _image(source: str, data=None):
    insts, labels = assemble(source, base=0x1000)
    return ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels, data=data or {})


class TestProgramImage:
    def test_fetch_and_bounds(self):
        image = _image("nop\nhalt")
        assert image.fetch(0x1000).op is Opcode.NOP
        with pytest.raises(IndexError):
            image.fetch(0x2000)
        with pytest.raises(IndexError):
            image.fetch(0x1002)  # misaligned

    def test_try_fetch(self):
        image = _image("nop\nhalt")
        assert image.try_fetch(0x1004) is not None
        assert image.try_fetch(0x1008) is None
        assert 0x1000 in image and 0x1008 not in image

    def test_sizes_and_addresses(self):
        image = _image("nop\nnop\nhalt")
        assert image.code_size == 3
        assert image.code_bytes == 12
        assert image.code_end == 0x100C
        assert list(image.addresses()) == [0x1000, 0x1004, 0x1008]

    def test_label_reverse_lookup(self):
        image = _image("entry:\nnop\nhalt")
        assert image.label_at(0x1000) == "entry"
        assert image.label_at(0x1004) is None

    def test_misaligned_base_rejected(self):
        with pytest.raises(ValueError):
            ProgramImage(instructions=[], code_base=0x1001)


class TestReachability:
    SOURCE = """
    main:
        jal used
        halt
    used:
        beq r1, r2, used_tail
        nop
    used_tail:
        jr ra
    dead:
        nop
        jr ra
    """

    def test_dead_code_not_reached(self):
        image = _image(self.SOURCE)
        reached = reachable_addresses(image)
        assert image.labels["used"] in reached
        assert image.labels["dead"] not in reached

    def test_branch_both_sides_reached(self):
        image = _image(self.SOURCE)
        reached = reachable_addresses(image)
        assert image.labels["used_tail"] in reached
        # The nop after the beq (fall-through) also reached:
        assert image.labels["used"] + 4 in reached

    def test_indirect_targets_via_data(self):
        source = """
        main:
            lw r1, 0(r2)
            jr r1
        island:
            halt
        """
        image = _image(source)
        # Without a relocation, the island is unreachable...
        assert image.labels["island"] not in reachable_addresses(image)
        # ...with a data word holding its address, it is.
        image.data[0x40_0000] = image.labels["island"]
        assert image.labels["island"] in reachable_addresses(image)


class TestStaticStats:
    def test_counts(self):
        image = _image("""
        main:
            jal callee
            beq r1, r2, main
            halt
        callee:
            nop
            bne r1, r0, callee
            jr ra
        """)
        stats = static_stats(image)
        assert stats.calls == 1  # raw assembly: no startup stub
        assert stats.conditional_branches == 2
        assert stats.backward_branches == 2
        assert stats.returns == 1


class TestCallGraph:
    def test_direct_edges(self):
        image = _image("""
        main:
            jal a
            jal b
            halt
        a:
            jal b
            jr ra
        b:
            jr ra
        """)
        graph = recover_call_graph(image).edges
        assert graph["main"] == {"a", "b"}
        assert graph["a"] == {"b"}
        assert graph["b"] == set()
