"""Unit tests for the generic dataflow engine and its analyses.

Small hand-assembled programs with facts worked out by hand: the
engine's direction semantics, each analysis' transfer functions, the
interprocedural summaries, trip-count bounds, and the dataflow-driven
jump-table resolver (differentially checked against the pattern
matcher it subsumes).
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.isa import (
    INSTRUCTION_BYTES,
    Instruction,
    Kind,
    Opcode,
    assemble,
    info,
)
from repro.isa.opcodes import OP_INFO
from repro.isa.registers import RA, ZERO
from repro.program import ProgramImage
from repro.static import (
    ALL_REGS_MASK,
    BOTTOM,
    ENTRY_DEF,
    TOP,
    ConstantRangeAnalysis,
    Direction,
    Interval,
    LivenessAnalysis,
    ProcedureSummaries,
    ReachingDefsAnalysis,
    StaticFacts,
    build_flow_graph,
    resolve_table_via_dataflow,
    solve,
)
import repro.static.dataflow as dataflow_mod
from repro.static.callgraph import StaticCallGraph
from repro.static.dataflow import WIDEN_AFTER_ROUNDS
from repro.static.recovery import RecoveredCFG, resolve_indirect_table
from repro.static.verifier import verify_image
from repro.workloads import generate, profile_for
from repro.workloads.fuzz import fuzz_profile
from repro.workloads.spec95 import SPEC95_NAMES

BASE = 0x1000


def _facts(source: str, procs: list[str]) -> StaticFacts:
    insts, labels = assemble(source, base=BASE)
    image = ProgramImage(instructions=insts, code_base=BASE,
                         entry=BASE, labels={p: labels[p] for p in procs})
    return StaticFacts(image)


def _proc(facts: StaticFacts, name: str):
    return facts.cfg.procedure(name)


STRAIGHT = """
main:
    addi r1, r0, 5
    addi r2, r1, 3
    add  r3, r1, r2
    halt
"""


class TestEngine:
    def test_flow_graph_is_sorted_and_rpo_starts_at_entry(self):
        facts = _facts(STRAIGHT, ["main"])
        graph = build_flow_graph(facts.cfg, _proc(facts, "main"))
        assert list(graph.nodes) == sorted(graph.nodes)
        assert graph.rpo[0] == graph.entry == BASE

    def test_forward_rows_carry_fact_before_each_instruction(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        result = facts.reaching(proc)
        assert result.analysis.direction is Direction.FORWARD
        rows = result.instruction_facts(facts.cfg, proc.start)
        # At the first instruction nothing has been defined yet.
        pc0, _, fact0 = rows[0]
        assert pc0 == BASE
        assert fact0.get(1) == frozenset({ENTRY_DEF})
        # At the second instruction r1's definition has landed.
        _, _, fact1 = rows[1]
        assert fact1.get(1) == frozenset({BASE})

    def test_backward_rows_carry_fact_after_each_instruction(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        result = facts.liveness(proc)
        assert result.analysis.direction is Direction.BACKWARD
        rows = {pc: fact for pc, _, fact
                in result.instruction_facts(facts.cfg, proc.start)}
        # After ``addi r1, r0, 5`` the value is still awaited by the
        # two readers below, so r1 must be live in the fact *after* it.
        assert (rows[BASE] >> 1) & 1
        # After the last reader redefines nothing, r1 stays live only
        # because the exit boundary is all-live; the intra-procedural
        # variant kills it.
        local = facts.liveness_local(proc)
        local_rows = {pc: fact for pc, _, fact
                      in local.instruction_facts(facts.cfg, proc.start)}
        assert not (local_rows[BASE + 2 * INSTRUCTION_BYTES] >> 1) & 1

    def test_fixpoint_converges_and_is_reproducible(self):
        source = """
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        for analysis_cls in (LivenessAnalysis, ReachingDefsAnalysis,
                             ConstantRangeAnalysis):
            runs = []
            for _ in range(2):
                facts = _facts(source, ["main"])
                proc = _proc(facts, "main")
                analysis = analysis_cls(facts.cfg.image,
                                        facts.summaries.call_effects)
                result = solve(analysis, facts.cfg,
                               graph=facts.flow_graph(proc))
                assert result.converged
                runs.append((result.in_facts, result.out_facts))
            assert runs[0] == runs[1]


class _CountingTransfers:
    """Mixin: log every block transfer as ``(block start, input)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transfers = []

    def transfer_block(self, rows, fact):
        self.transfers.append((rows[0][0], fact))
        return super().transfer_block(rows, fact)


class _CountingLiveness(_CountingTransfers, LivenessAnalysis):
    pass


class _CountingReaching(_CountingTransfers, ReachingDefsAnalysis):
    pass


class _CountingConstants(_CountingTransfers, ConstantRangeAnalysis):
    pass


COUNTING = (_CountingLiveness, _CountingReaching, _CountingConstants)

ACYCLIC = """
main:
    addi r1, r0, 3
    beq r1, r2, right
    addi r3, r1, 1
    j join
right:
    addi r3, r1, 2
join:
    add r4, r3, r3
    halt
"""

#: A counted loop whose counter interval grows one step per round until
#: :data:`WIDEN_AFTER_ROUNDS` passes and widening drops it to TOP.
WIDENING_LOOP = """
main:
    addi r1, r0, 0
    addi r2, r0, 100
loop:
    addi r1, r1, 1
    addi r3, r3, 2
    blt r1, r2, loop
    halt
"""


def _counted_solve(analysis_cls, source):
    facts = _facts(source, ["main"])
    proc = _proc(facts, "main")
    analysis = analysis_cls(facts.cfg.image, facts.summaries.call_effects)
    result = solve(analysis, facts.cfg, graph=facts.flow_graph(proc))
    return result, analysis.transfers


class TestTransferSkip:
    """``solve`` re-transfers a block only when its input changed."""

    @pytest.mark.parametrize("analysis_cls", COUNTING,
                             ids=lambda cls: cls.__name__)
    def test_acyclic_procedure_transfers_each_block_once(self,
                                                         analysis_cls):
        result, transfers = _counted_solve(analysis_cls, ACYCLIC)
        assert len(result.graph.nodes) == 4
        assert sorted(block for block, _ in transfers) == \
            list(result.graph.nodes)
        assert result.converged and result.rounds == 2

    @pytest.mark.parametrize("analysis_cls", COUNTING,
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("source", [WIDENING_LOOP, """
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """], ids=["counted", "open"])
    def test_confirming_round_transfers_nothing(self, analysis_cls, source,
                                                monkeypatch):
        result, transfers = _counted_solve(analysis_cls, source)
        assert result.converged and result.rounds >= 2
        # Stopping one round early drops only the confirming round.
        monkeypatch.setattr(dataflow_mod, "MAX_ROUNDS", result.rounds - 1)
        cut, cut_transfers = _counted_solve(analysis_cls, source)
        assert not cut.converged
        assert cut_transfers == transfers
        # No block is ever transferred twice in a row on the same input.
        last = {}
        for block, fact in transfers:
            assert last.get(block, object()) != fact
            last[block] = fact

    def test_widening_loop_keeps_its_facts_and_rounds(self):
        result, transfers = _counted_solve(_CountingConstants,
                                           WIDENING_LOOP)
        # Pinned from the solver that transfers every block every
        # round: widening fires in round WIDEN_AFTER_ROUNDS + 1 and one
        # more round confirms.
        assert result.converged
        assert result.rounds == WIDEN_AFTER_ROUNDS + 2 == 10
        zero, hundred = Interval(0, 0), Interval(100, 100)
        entry, loop, done = BASE, BASE + 8, BASE + 20
        assert result.in_facts == {entry: {0: zero},
                                   loop: {0: zero, 2: hundred},
                                   done: {0: zero, 2: hundred}}
        assert result.out_facts == {entry: {0: zero, 1: zero, 2: hundred},
                                    loop: {0: zero, 2: hundred},
                                    done: {0: zero, 2: hundred}}
        # Entry once; loop header and exit once per round the header's
        # input grew (rounds 1-9), never in the confirming round.
        assert len(transfers) == 1 + 2 * (result.rounds - 1)


class TestLiveness:
    def test_exit_boundary_variants(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        assert facts.liveness(proc).out_facts[proc.start] == ALL_REGS_MASK
        assert facts.liveness_local(proc).out_facts[proc.start] == 0

    def test_branch_operands_are_live_in(self):
        facts = _facts("""
        main:
            beq r5, r6, out
            addi r1, r0, 1
        out:
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        live_in = facts.liveness(proc).in_facts[proc.start]
        assert (live_in >> 5) & 1 and (live_in >> 6) & 1


class TestReachingDefs:
    def test_redefinition_kills_earlier_def(self):
        facts = _facts("""
        main:
            addi r1, r0, 1
            addi r1, r0, 2
            add  r2, r1, r1
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        rows = facts.reaching(proc).instruction_facts(facts.cfg,
                                                      proc.start)
        _, _, at_use = rows[2]
        assert at_use.get(1) == frozenset({BASE + INSTRUCTION_BYTES})

    def test_join_unions_defs_from_both_arms(self):
        facts = _facts("""
        main:
            beq r9, r0, other
            addi r1, r0, 1
            j out
        other:
            addi r1, r0, 2
        out:
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        # The join block (the one holding ``halt``) is the last block;
        # both arms' definitions of r1 must reach it.
        halt_start = max(facts.reaching(proc).in_facts)
        fact = facts.reaching(proc).in_facts[halt_start]
        assert len(fact.get(1, frozenset())) == 2


class TestConstantRange:
    def test_straight_line_intervals_are_exact(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        out = facts.constants(proc).out_facts[proc.start]
        assert out[1] == Interval(5, 5)
        assert out[2] == Interval(8, 8)
        assert out[3] == Interval(13, 13)

    def test_loop_counter_widens_to_top_but_converges(self):
        facts = _facts("""
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            beq r9, r0, loop
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        result = facts.constants(proc)
        assert result.converged
        header = next(b for b in result.in_facts
                      if b != proc.start)
        fact = result.in_facts[header]
        assert fact.get(1, TOP) is TOP


class TestSPDelta:
    def test_balanced_and_unbalanced_deltas(self):
        facts = _facts("""
        main:
            jal f
            jal g
            halt
        f:
            addi sp, sp, -16
            addi sp, sp, 16
            jr ra
        g:
            addi sp, sp, -8
            jr ra
        """, ["main", "f", "g"])
        f, g = _proc(facts, "f"), _proc(facts, "g")
        assert facts.sp_delta(f).out_facts[f.start] == 0
        assert facts.sp_delta(g).out_facts[g.start] == -8
        assert facts.summaries["f"].sp_balanced
        assert not facts.summaries["g"].sp_balanced

    def test_unbalanced_callee_unbalances_callers_around_a_cycle(self):
        """``g`` leaves SP moved; ``b`` calls it, and ``a`` and ``b``
        call each other, so both lose frame balance — one round after
        the callee they learn it from."""
        facts = _facts("""
        main:
            jal a
            halt
        a:
            addi sp, sp, -8
            sw ra, 0(sp)
            jal b
            lw ra, 0(sp)
            addi sp, sp, 8
            jr ra
        b:
            addi sp, sp, -8
            sw ra, 0(sp)
            beq r1, r0, b_done
            jal a
            jal g
        b_done:
            lw ra, 0(sp)
            addi sp, sp, 8
            jr ra
        g:
            addi sp, sp, -8
            jr ra
        """, ["main", "a", "b", "g"])
        for name in ("a", "b", "g"):
            assert not facts.summaries[name].sp_balanced, name
        assert facts.summaries["main"].sp_balanced     # halts, no return
        main, a = _proc(facts, "main"), _proc(facts, "a")
        assert facts.sp_delta(main).out_facts[main.start] is TOP
        assert facts.sp_delta(a).out_facts[a.start] is TOP


class TestSummaries:
    SOURCE = """
    main:
        addi r2, r0, 1
        jal outer
        halt
    outer:
        addi r4, r0, 2
        jal inner
        jr ra
    inner:
        add r5, r6, r6
        jr ra
    """

    def test_clobbers_propagate_transitively(self):
        facts = _facts(self.SOURCE, ["main", "outer", "inner"])
        outer = facts.summaries["outer"]
        # outer writes r4 itself and r5 transitively via inner; the
        # implicit RA write of ``jal`` is handled at call sites, not
        # carried in the summary mask.
        assert (outer.clobbered >> 4) & 1
        assert (outer.clobbered >> 5) & 1
        assert not (outer.clobbered >> 2) & 1

    def test_used_is_upward_exposed_not_may_read(self):
        facts = _facts(self.SOURCE, ["main", "outer", "inner"])
        inner = facts.summaries["inner"]
        assert (inner.used >> 6) & 1       # reads caller's r6
        outer = facts.summaries["outer"]
        assert (outer.used >> 6) & 1       # exposed through the call
        # r4 is defined locally before any use: not upward-exposed.
        assert not (outer.used >> 4) & 1


class TestTripBounds:
    def test_counted_loop_bounds_are_exact(self):
        facts = _facts("""
        main:
            addi r1, r0, 0
            addi r2, r0, 5
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """, ["main"])
        proc = _proc(facts, "main")
        bounds = facts.trip_bounds(proc)
        assert len(bounds) == 1
        (bound,) = bounds.values()
        assert (bound.lo, bound.hi) == (5, 5)
        assert not bound.is_degenerate

    def test_non_canonical_loop_left_unbounded(self):
        facts = _facts("""
        main:
            addi r1, r0, 0
        loop:
            addi r1, r1, 1
            beq r9, r0, loop
            halt
        """, ["main"])
        assert facts.trip_bounds(_proc(facts, "main")) == {}


class TestTableResolution:
    @pytest.mark.parametrize("name", ["perl", "gcc", "fuzz-7", "fuzz-11"])
    def test_dataflow_resolver_matches_pattern_matcher(self, name):
        """The dataflow-driven resolver must agree with the ad-hoc
        backward pattern matcher it subsumes on every indirect site
        the matcher can resolve."""
        image = generate(profile_for(name)).image
        facts = StaticFacts(image)
        cfg = facts.cfg
        checked = 0
        for proc in facts.live_procedures():
            for start in sorted(cfg.reachable_blocks(proc)):
                block = cfg.blocks[start]
                pc = block.end - INSTRUCTION_BYTES
                inst = image.try_fetch(pc)
                if inst is None or not inst.is_indirect \
                        or inst.is_return:
                    continue
                pattern = resolve_indirect_table(image, pc,
                                                 cfg.reloc_targets)
                dataflow = resolve_table_via_dataflow(facts, proc, pc)
                if pattern is not None and dataflow is not None:
                    assert sorted(set(pattern)) == sorted(set(dataflow))
                    checked += 1
        assert checked > 0, f"no resolvable indirect sites in {name}"


class TestStaticFacts:
    def test_results_are_memoised(self):
        facts = _facts(STRAIGHT, ["main"])
        proc = _proc(facts, "main")
        assert facts.liveness(proc) is facts.liveness(proc)
        assert facts.reaching(proc) is facts.reaching(proc)
        assert facts.constants(proc) is facts.constants(proc)
        assert facts.cfg is facts.cfg

    def test_live_procedures_in_address_order(self):
        facts = _facts(TestSummaries.SOURCE, ["main", "outer", "inner"])
        names = [p.name for p in facts.live_procedures()]
        assert names == ["main", "outer", "inner"]


class TestRecursiveSummaries:
    """A mutually recursive pair ``p <-> q`` that also calls a leaf.

    The summary fixpoint has to carry effects around the cycle: ``p``
    only learns ``q``'s clobbers and upward-exposed reads (and ``q``
    ``p``'s) after the other side has been re-solved.  ``leaf`` saves
    and restores the callee-saved r16, so its own summary keeps r16 out
    of ``clobbered``.  The cycle still carries r16: the clobber
    fixpoint starts from each procedure's local writes, ``q`` reads
    ``leaf``'s local estimate before ``leaf`` is first solved, and once
    ``p`` and ``q`` hold the bit they sustain each other.  That is a
    sound over-approximation, and the pin keeps it: the summaries must
    not depend on how many procedures a round skips.
    """

    SOURCE = """
    main:
        addi r6, r0, 1
        jal p
        halt
    p:
        addi sp, sp, -8
        sw ra, 0(sp)
        addi r5, r6, 1
        beq r5, r0, p_done
        jal q
    p_done:
        lw ra, 0(sp)
        addi sp, sp, 8
        jr ra
    q:
        addi sp, sp, -8
        sw ra, 0(sp)
        jal leaf
        add r7, r8, r5
        beq r7, r0, q_done
        jal p
    q_done:
        lw ra, 0(sp)
        addi sp, sp, 8
        jr ra
    leaf:
        addi sp, sp, -8
        sw r16, 4(sp)
        addi r16, r9, 3
        add r10, r16, r16
        lw r16, 4(sp)
        addi sp, sp, 8
        jr ra
    """
    PROCS = ["main", "p", "q", "leaf"]

    #: name -> (clobbered, used, preserved, sp_balanced).
    PINNED = {
        "main": (0x200104E0, 0x20010300, 0x0, True),
        "p": (0x200104A0, 0xA0010340, 0x80000000, True),
        "q": (0x200104A0, 0xA0010360, 0x80000000, True),
        "leaf": (0x20000400, 0xA0010200, 0x10000, True),
    }

    def test_summaries_are_pinned(self):
        facts = _facts(self.SOURCE, self.PROCS)
        got = {name: (s.clobbered, s.used, s.preserved, s.sp_balanced)
               for name, s in facts.summaries.summaries.items()}
        assert got == self.PINNED

    def test_cycle_shares_effects(self):
        summaries = _facts(self.SOURCE, self.PROCS).summaries
        for name in ("p", "q"):
            s = summaries[name]
            assert s.sp_balanced
            # Both ends of the cycle see r5/r7/r10 written and r6/r8/r9
            # read on entry (r5 is read by q before any write of its own).
            for reg in (5, 7, 10):
                assert (s.clobbered >> reg) & 1, (name, reg)
            for reg in (6, 8, 9):
                assert (s.used >> reg) & 1, (name, reg)
        assert not (summaries["leaf"].clobbered >> 16) & 1
        assert (summaries["q"].used >> 5) & 1
        assert not (summaries["p"].used >> 5) & 1
        assert summaries["leaf"].preserved == 1 << 16


class TestSolveCount:
    @pytest.mark.parametrize("name", ["gcc", "go", "vortex"])
    def test_summaries_resolve_only_when_a_callee_changed(self, name):
        """Re-solving every procedure every round costs 23-25 solves
        per procedure on these images; change-driven re-solving needs
        about five."""
        image = generate(profile_for(name), verify=False).image
        summaries = StaticFacts(image).summaries
        procs = len(summaries.cfg.procedures)
        assert 0 < summaries.solves <= 12 * procs, (
            f"{name}: {summaries.solves} solves for {procs} procedures")


class TestDecodedRows:
    @pytest.mark.parametrize("name", ["gcc", "fuzz-7", "fuzz-11"])
    def test_rows_match_a_fetch_walk_of_each_block(self, name):
        image = generate(profile_for(name), verify=False).image
        cfg = RecoveredCFG(image)
        assert sorted(cfg.rows) == sorted(cfg.blocks)
        for start, block in cfg.blocks.items():
            walk = tuple((pc, image.try_fetch(pc))
                         for pc in block.addresses()
                         if image.try_fetch(pc) is not None)
            assert cfg.rows[start] == walk, hex(start)


class TestOpcodeMetadata:
    """Dataflow transfers reach opcode metadata through the member;
    the table and the instruction layout stay as they were."""

    def test_member_metadata_is_the_table_entry(self):
        for op in Opcode:
            assert op.meta is OP_INFO[op] is info(op)
        assert "meta" not in Opcode.__members__
        assert len(Opcode) == len(OP_INFO)

    def test_instruction_layout_is_unchanged(self):
        assert [(f.name, f.compare) for f in dataclasses.fields(
            Instruction)] == [
            ("op", True), ("rd", True), ("rs1", True), ("rs2", True),
            ("imm", True), ("sh1", True), ("sh2", True),
            ("kind", False), ("latency", False), ("is_control", False),
            ("is_conditional_branch", False), ("is_call", False),
            ("is_return", False), ("is_indirect", False),
            ("is_direct_control", False), ("is_backward", False)]

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
    def test_classification_follows_the_table(self, op):
        meta = OP_INFO[op]
        for rd, rs1, rs2, imm in ((0, 0, 0, 0), (3, 1, 2, -8),
                                  (31, 31, 29, 12)):
            inst = Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
            assert inst.kind is meta.kind
            assert inst.latency == meta.latency
            assert inst.is_call == (meta.kind in (Kind.CALL,
                                                  Kind.CALL_INDIRECT))
            assert inst.is_return == (op is Opcode.JR and rs1 == RA)
            assert inst.is_backward == (meta.kind is Kind.BRANCH
                                        and imm < 0)
            expected_src = tuple(
                reg for reg, reads in ((rs1, meta.reads_rs1),
                                       (rs2, meta.reads_rs2))
                if reads and reg != ZERO)
            assert inst.source_registers() == expected_src
            expected_dest = rd if meta.writes_rd and rd != ZERO else None
            assert inst.destination_register() == expected_dest

    def test_equality_and_hash_ignore_classification(self):
        a = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=3)
        b = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=3)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((Opcode.ADDI, 1, 2, 0, 3, 0, 0))
        assert a != Instruction(Opcode.ADDI, rd=1, rs1=2, imm=4)
        assert a != Instruction(Opcode.ORI, rd=1, rs1=2, imm=3)


# ---------------------------------------------------------------------------
# Identity golden: summaries, call effects, SP facts and verifier reports
# ---------------------------------------------------------------------------
IDENTITY_GOLDEN = Path(__file__).parent / "golden" / "static_identity.json"

#: Workload seeds per SPEC stand-in: the profile's own and one more.
IDENTITY_SPEC_SEEDS = (None, 1)
IDENTITY_FUZZ_SEEDS = range(40)


def _identity_profiles():
    for name in SPEC95_NAMES:
        for seed in IDENTITY_SPEC_SEEDS:
            key = name if seed is None else f"{name}@{seed}"
            yield key, profile_for(name, seed)
    for seed in IDENTITY_FUZZ_SEEDS:
        yield f"fuzz-{seed}", fuzz_profile(seed)


def _fact_token(fact):
    if fact is BOTTOM:
        return "bottom"
    if fact is TOP:
        return "top"
    return fact


def _identity_digest(profile) -> str:
    """SHA-256 over everything the summary layer feeds downstream."""
    workload = generate(profile, verify=False)
    image = workload.image
    cfg = RecoveredCFG(image)
    callgraph = StaticCallGraph(cfg)
    summaries = ProcedureSummaries(cfg, callgraph)
    report = verify_image(image, intents=workload.branch_intents,
                          cfg=cfg, callgraph=callgraph)
    payload = {
        "summaries": [[s.name, s.clobbered, s.used, s.preserved,
                       s.sp_balanced]
                      for _, s in sorted(summaries.summaries.items())],
        "call_effects": [[pc, e.clobbered, e.used, e.sp_balanced]
                         for pc, e in sorted(summaries.call_effects.items())],
        "sp": {name: [[block, _fact_token(result.in_facts[block]),
                       _fact_token(result.out_facts[block])]
                      for block in sorted(result.in_facts)]
               for name, result in sorted(summaries.sp_results.items())},
        "report": {
            "findings": [f.to_dict() for f in report.findings],
            "dead_procedures": list(report.dead_procedures),
            "rules_run": list(report.rules_run),
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _combined_digest(images: dict) -> str:
    text = json.dumps(images, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestIdentityGolden:
    """The summary layer's outputs, pinned per image.

    Regenerate with ``PYTHONPATH=src python tests/test_static_dataflow.py
    --record`` only when a change is meant to move analysis results.
    """

    def test_golden_covers_every_image_once(self):
        golden = json.loads(IDENTITY_GOLDEN.read_text())
        assert sorted(golden["images"]) == sorted(
            key for key, _ in _identity_profiles())
        assert golden["sha256"] == _combined_digest(golden["images"])

    @pytest.mark.parametrize("key,profile", list(_identity_profiles()),
                             ids=[key for key, _ in _identity_profiles()])
    def test_image_matches_golden(self, key, profile):
        golden = json.loads(IDENTITY_GOLDEN.read_text())["images"]
        assert _identity_digest(profile) == golden[key], (
            f"{key}: summaries, call effects, SP facts or the verifier "
            f"report drifted from tests/golden/static_identity.json")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_static_dataflow.py --record")
    images = {key: _identity_digest(profile)
              for key, profile in _identity_profiles()}
    IDENTITY_GOLDEN.write_text(json.dumps(
        {"images": images, "sha256": _combined_digest(images)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {IDENTITY_GOLDEN} ({len(images)} images)")
