"""Tests for static CFG recovery, dominators/loops, call graph, seeding."""

from repro.isa import INSTRUCTION_BYTES, assemble
from repro.program import ProgramImage
from repro.static import (
    DominatorTree,
    RecoveredCFG,
    StaticCallGraph,
    compute_static_seeds,
    find_loops,
    irreducible_components,
)
from repro.static.recovery import START_PROC, resolve_indirect_table


def _image(source: str, procs=None, data=None, relocs=None):
    """Assemble ``source``; labels not named in ``procs`` are treated as
    block-internal and dropped (the assembler already resolved them)."""
    insts, labels = assemble(source, base=0x1000)
    if procs is not None:
        labels = {k: v for k, v in labels.items() if k in procs}
    return ProgramImage(instructions=insts, code_base=0x1000, entry=0x1000,
                        labels=labels, data=data or {}, relocs=relocs or {})


DIAMOND = """
main:
    jal f
    halt
f:
    andi r1, r1, 1
    bne  r1, r0, then
    addi r2, r0, 1
    j    join
then:
    addi r2, r0, 2
join:
    jr ra
"""


LOOP = """
main:
    jal f
    halt
f:
    addi r1, r0, 0
    addi r2, r0, 8
head:
    addi r1, r1, 1
    blt  r1, r2, head
    jr ra
"""

NESTED = """
main:
    jal f
    halt
f:
    addi r1, r0, 0
outer:
    addi r2, r0, 0
inner:
    addi r2, r2, 1
    blt  r2, r4, inner
    addi r1, r1, 1
    blt  r1, r3, outer
    jr ra
"""

# Two-entry cycle: main can enter the a<->b cycle at either node, so
# neither dominates the other (classic irreducible shape).
IRREDUCIBLE = """
f:
    bne r1, r0, b
a:
    addi r2, r2, 1
    j b
b:
    addi r2, r2, 2
    beq r2, r3, done
    j a
done:
    jr ra
"""


class TestProcedureRanges:
    def test_partition_and_stub(self):
        image = _image(DIAMOND, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        names = [p.name for p in cfg.procedures]
        assert names == ["main", "f"]
        main, f = cfg.procedures
        assert main.start == 0x1000 and main.end == f.start
        assert f.end == image.code_end
        assert cfg.procedure_of(f.start + 4) is f
        assert cfg.procedure_of(0x9999) is None

    def test_synthetic_start_proc(self):
        # Labels placed past the first instructions leave a stub range.
        insts, labels = assemble("nop\nhalt\nmain:\njr ra", base=0x1000)
        image = ProgramImage(instructions=insts, code_base=0x1000,
                             entry=0x1000, labels=labels)
        cfg = RecoveredCFG(image)
        assert cfg.procedures[0].name == START_PROC
        assert cfg.procedures[0].start == 0x1000
        assert cfg.procedures[1].name == "main"


class TestBlockDiscovery:
    def test_diamond_blocks(self):
        image = _image(DIAMOND, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        f = cfg.procedure("f")
        blocks = cfg.proc_blocks(f)
        terms = [b.terminator for b in blocks]
        assert terms == ["branch", "jump", "fallthrough", "return"]
        branch = blocks[0]
        then_start, join_start = blocks[2].start, blocks[3].start
        assert set(branch.successors) == {then_start, branch.end}
        assert blocks[1].successors == (join_start,)
        assert blocks[3].successors == ()

    def test_call_does_not_end_block(self):
        image = _image(DIAMOND, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        main_blocks = cfg.proc_blocks(cfg.procedure("main"))
        # JAL + HALT form a single block (the call falls through).
        assert len(main_blocks) == 1
        assert main_blocks[0].instructions == 2
        assert main_blocks[0].terminator == "halt"

    def test_block_at_interior_address(self):
        image = _image(DIAMOND, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        f = cfg.procedure("f")
        entry_block = cfg.block_at(f.start + INSTRUCTION_BYTES)
        assert entry_block is not None
        assert entry_block.start == f.start

    def test_reachability_excludes_orphans(self):
        src = """
        f:
            jr ra
            addi r1, r1, 1
            jr ra
        """
        image = _image(src, procs={"f"})
        cfg = RecoveredCFG(image)
        f = cfg.procedure("f")
        reachable = cfg.reachable_blocks(f)
        assert reachable == {f.start}
        assert len(cfg.proc_blocks(f)) == 2
        # Memoised per procedure, and read-only for every caller.
        assert isinstance(reachable, frozenset)
        assert cfg.reachable_blocks(f) is reachable


class TestDominatorsAndLoops:
    def test_diamond_dominance(self):
        image = _image(DIAMOND, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        f = cfg.procedure("f")
        tree = DominatorTree(cfg, f)
        blocks = cfg.proc_blocks(f)
        entry, else_b, then_b, join = (b.start for b in blocks)
        assert tree.dominates(entry, join)
        assert not tree.dominates(else_b, join)
        assert not tree.dominates(then_b, join)
        assert find_loops(tree) == []

    def test_single_loop(self):
        image = _image(LOOP, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        tree = DominatorTree(cfg, cfg.procedure("f"))
        loops = find_loops(tree)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.depth == 1
        assert len(loop.back_edges) == 1
        source, header = loop.back_edges[0]
        assert header == loop.header
        assert cfg.blocks[source].terminator == "branch"

    def test_nested_loop_depths(self):
        image = _image(NESTED, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        tree = DominatorTree(cfg, cfg.procedure("f"))
        loops = find_loops(tree)
        assert [loop.depth for loop in loops] == [1, 2]
        outer, inner = loops
        assert inner.body < outer.body

    def test_irreducible_detected(self):
        image = _image(IRREDUCIBLE, procs={"f"})
        cfg = RecoveredCFG(image)
        tree = DominatorTree(cfg, cfg.procedure("f"))
        comps = irreducible_components(tree)
        assert len(comps) == 1
        assert len(comps[0]) >= 2

    def test_reducible_has_no_components(self):
        image = _image(NESTED, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        tree = DominatorTree(cfg, cfg.procedure("f"))
        assert irreducible_components(tree) == []


class TestIndirectResolution:
    SWITCH = """
    f:
        andi r16, r16, 1
        slli r16, r16, 2
        lui  r17, 64
        ori  r17, r17, 0
        add  r17, r17, r16
        lw   r18, 0(r17)
        jr   r18
    arm0:
        j out
    arm1:
        addi r1, r1, 1
    out:
        jr ra
    """

    def _switch_image(self):
        insts, labels = assemble(self.SWITCH, base=0x1000)
        table = 64 << 16
        relocs = {table: labels["arm0"], table + 4: labels["arm1"]}
        return ProgramImage(
            instructions=insts, code_base=0x1000, entry=0x1000,
            labels={"f": labels["f"]}, data=dict(relocs),
            relocs=relocs), labels

    def test_exact_table_resolution(self):
        image, labels = self._switch_image()
        jr_pc = labels["arm0"] - INSTRUCTION_BYTES
        targets = resolve_indirect_table(image, jr_pc, image.relocs)
        assert targets == (labels["arm0"], labels["arm1"])

    def test_switch_block_successors(self):
        image, labels = self._switch_image()
        cfg = RecoveredCFG(image)
        block = cfg.block_at(labels["arm0"] - INSTRUCTION_BYTES)
        assert block.terminator == "switch"
        assert set(block.successors) == {labels["arm0"], labels["arm1"]}

    def test_unmatched_pattern_returns_none(self):
        image = _image(DIAMOND, procs={"main", "f"})
        # The return JR has no table-producing chain behind it.
        ret_pc = image.code_end - INSTRUCTION_BYTES
        assert resolve_indirect_table(image, ret_pc, {}) is None


class TestCallGraph:
    def test_direct_edges_and_liveness(self):
        src = """
        main:
            jal a
            halt
        a:
            jal b
            jr ra
        b:
            jr ra
        dead:
            jr ra
        """
        image = _image(src, procs={"main", "a", "b", "dead"})
        graph = StaticCallGraph(RecoveredCFG(image))
        assert graph.edges["main"] == {"a"}
        assert graph.edges["a"] == {"b"}
        assert graph.live == {"main", "a", "b"}
        assert graph.dead_procedures == ("dead",)
        assert graph.max_call_depth == 2
        assert graph.callers_of("b") == {"a"}

    def test_recursion_unbounded_depth(self):
        src = """
        main:
            jal a
            halt
        a:
            jal a
            jr ra
        """
        image = _image(src, procs={"main", "a"})
        graph = StaticCallGraph(RecoveredCFG(image))
        assert graph.max_call_depth is None


class TestStaticSeeding:
    def test_loop_exit_and_call_return_seeds(self):
        image = _image(LOOP, procs={"main", "f"})
        cfg = RecoveredCFG(image)
        seeds = compute_static_seeds(image)
        kinds = {s.kind for s in seeds}
        assert kinds == {"loop_exit", "call_return"}
        loop_seed = next(s for s in seeds if s.kind == "loop_exit")
        # The exit point is the fall-through of the back-edge branch.
        back_branch = loop_seed.cue_pc
        assert image.fetch(back_branch).is_backward_branch()
        assert loop_seed.pc == back_branch + INSTRUCTION_BYTES
        call_seed = next(s for s in seeds if s.kind == "call_return")
        assert image.fetch(call_seed.cue_pc).is_call
        assert call_seed.pc == call_seed.cue_pc + INSTRUCTION_BYTES

    def test_best_first_order(self):
        image = _image(NESTED, procs={"main", "f"})
        seeds = compute_static_seeds(image)
        kinds = [s.kind for s in seeds]
        # All loop exits precede all call returns.
        assert kinds == sorted(kinds, key=lambda k: k != "loop_exit")
        exits = [s for s in seeds if s.kind == "loop_exit"]
        depths = [s.loop_depth for s in exits]
        assert depths == sorted(depths, reverse=True)

    def test_dead_procedures_contribute_nothing(self):
        src = """
        main:
            jal a
            halt
        a:
            jr ra
        dead:
            addi r1, r0, 0
            addi r2, r0, 9
            jal a
            blt r1, r2, dead
            jr ra
        """
        image = _image(src, procs={"main", "a", "dead"})
        seeds = compute_static_seeds(image)
        assert all(s.procedure != "dead" for s in seeds)

    def test_footprints_positive_and_capped(self):
        image = _image(NESTED, procs={"main", "f"})
        for seed in compute_static_seeds(image):
            assert seed.footprint_instructions > 0
            assert seed.footprint_lines >= 1
