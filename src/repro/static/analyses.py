"""Concrete dataflow analyses over the recovered CFG.

Four analyses instantiate the engine in :mod:`repro.static.dataflow`,
and a summary layer lifts them across procedure boundaries:

* **Liveness** (backward, register bitmask) — which registers may still
  be read before being overwritten.  The boundary fact at procedure
  exits is *all registers live*: callers' values escape through returns
  and the ISA has no declared clobber sets, so anything weaker would be
  unsound.  Dead-store detection therefore only catches write-after-
  write within a procedure, which is exactly the class the generator
  could emit by accident.
* **Reaching definitions** (forward, ``reg -> set of defining pcs``)
  with a synthetic :data:`ENTRY_DEF` definition for values live-in at
  the procedure entry.  Call sites are *may*-definitions of everything
  the callee's summary clobbers.
* **Value ranges / constant propagation** (forward, ``reg ->``
  :class:`Interval`) with widening at loop heads.  Subsumes the ad-hoc
  backward constant walk used for jump-table resolution: the interval
  of a table load's address register directly bounds the table slice
  (:func:`resolve_table_via_dataflow`).
* **Stack-pointer delta** (forward, ``int`` offset or ``TOP``) —
  SP-relative frame tracking for stack-discipline rules and for
  locating callee-save slots.

:class:`ProcedureSummaries` computes, bottom-up over the call graph
with a fixpoint for recursion, each procedure's may-clobbered and
may-used register sets, its proven callee-saved registers, and whether
its frame is balanced (SP restored on every return).  The summaries
feed back into the intraprocedural transfer functions at call sites —
the interprocedural strategy described in DESIGN.md §13.

:class:`StaticFacts` is the shared lazy cache the verifier and the
trace predictor draw from, so one image is analysed once no matter how
many rules consume the facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, TypeVar

from repro.isa import INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.registers import NUM_REGISTERS, RA, SP, ZERO
from repro.program.image import ProgramImage
from repro.static.callgraph import StaticCallGraph
from repro.static.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    Direction,
    FlowGraph,
    build_flow_graph,
    solve,
)
from repro.static.dominators import DominatorTree, NaturalLoop, find_loops
from repro.static.recovery import ProcedureRange, RecoveredCFG

F = TypeVar("F")

#: Synthetic defining pc for values live-in at a procedure entry.
ENTRY_DEF = -1

#: Bitmask of every architectural register except the hardwired zero.
ALL_REGS_MASK = ((1 << NUM_REGISTERS) - 1) & ~(1 << ZERO)

#: Signed 32-bit bounds; interval arithmetic that may leave this range
#: degrades to TOP because engine registers wrap modulo 2**32.
_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1

#: Largest jump-table slice :func:`resolve_table_via_dataflow` will
#: enumerate; wider address intervals are treated as unresolved.
_TABLE_CAP = 256


def mask_of(regs: Iterator[int]) -> int:
    """Bitmask with the given register numbers set."""
    mask = 0
    for reg in regs:
        mask |= 1 << reg
    return mask


def mask_iter(mask: int) -> Iterator[int]:
    """Register numbers present in ``mask``, ascending."""
    reg = 0
    while mask:
        if mask & 1:
            yield reg
        mask >>= 1
        reg += 1


# ---------------------------------------------------------------------------
# Value-range lattice
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """Inclusive signed value range ``[lo, hi]``; a constant when equal."""

    lo: int
    hi: int

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def within(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi


def _interval(lo: int, hi: int) -> Optional[Interval]:
    """Interval constructor that degrades out-of-range bounds to TOP."""
    if lo < _INT_MIN or hi > _INT_MAX or lo > hi:
        return None
    return Interval(lo, hi)


def _hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


class _Bottom:
    """Unreachable-fact sentinel for lattices with a non-trivial top."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊥"


BOTTOM = _Bottom()


class _Top:
    """Unknown-value sentinel for the scalar SP-delta lattice."""

    _instance: Optional["_Top"] = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊤"


TOP = _Top()


# ---------------------------------------------------------------------------
# Call-site effect lookup shared by every interprocedural transfer
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CallEffects:
    """Joined may-effects of one call site over all its possible callees.

    ``clobbered``/``used`` are register bitmasks; an unresolvable site
    (no known targets) degrades to the conservative all-registers /
    unbalanced effect.
    """

    clobbered: int
    used: int
    sp_balanced: bool


_UNKNOWN_CALL = CallEffects(clobbered=ALL_REGS_MASK, used=ALL_REGS_MASK,
                            sp_balanced=False)


# ---------------------------------------------------------------------------
# Liveness (backward, bitmask)
# ---------------------------------------------------------------------------
class LivenessAnalysis(DataflowAnalysis[int]):
    """May-live registers; the fact is a bitmask, bit *r* = ``r`` live.

    ``exit_boundary`` is the fact at procedure exits.  The sound
    default is *all registers live* (values escape through returns);
    passing ``0`` restricts liveness to intra-procedural uses, which is
    what def-use lint rules want — whether a *caller* consumes a
    leftover value is the caller's read-before-write problem, not a
    liveness fact of this procedure.
    """

    direction = Direction.BACKWARD

    def __init__(self, image: ProgramImage,
                 call_effects: dict[int, CallEffects],
                 exit_boundary: int = ALL_REGS_MASK) -> None:
        super().__init__(image)
        self._calls = call_effects
        self._exit_boundary = exit_boundary

    def boundary(self, graph: FlowGraph) -> int:
        return self._exit_boundary

    def initial(self, graph: FlowGraph) -> int:
        return 0

    def join(self, a: int, b: int) -> int:
        return a | b

    def transfer_instruction(self, pc: int, inst: Instruction,
                             fact: int) -> int:
        dest = inst.destination_register()
        if dest is None and inst.is_call:
            dest = RA       # the engine's JALR links to RA when rd=0
        if dest is not None:
            fact &= ~(1 << dest)
        if inst.is_call:
            effects = self._calls.get(pc, _UNKNOWN_CALL)
            # The callee's read of RA is satisfied by this call's own
            # link write, so it is not a use of the caller's RA.
            fact |= effects.used & ~(1 << RA)
            # Callee may-clobbers are not kills: "may" cannot remove
            # liveness soundly.
        for reg in inst.source_registers():
            fact |= 1 << reg
        return fact


# ---------------------------------------------------------------------------
# Reaching definitions (forward, reg -> defining pcs)
# ---------------------------------------------------------------------------
ReachingFact = dict[int, frozenset[int]]


class ReachingDefsAnalysis(DataflowAnalysis[ReachingFact]):
    """Definition sites reaching each point, per register.

    A call site is a *may*-definition of every register its callees'
    summaries clobber (weak update: the incoming definitions survive),
    and a *must*-definition of the link register.
    """

    direction = Direction.FORWARD

    def __init__(self, image: ProgramImage,
                 call_effects: dict[int, CallEffects]) -> None:
        super().__init__(image)
        self._calls = call_effects

    def boundary(self, graph: FlowGraph) -> ReachingFact:
        entry = frozenset({ENTRY_DEF})
        return {reg: entry for reg in range(1, NUM_REGISTERS)}

    def initial(self, graph: FlowGraph) -> ReachingFact:
        return {}

    def join(self, a: ReachingFact, b: ReachingFact) -> ReachingFact:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        for reg, defs in b.items():
            have = out.get(reg)
            out[reg] = defs if have is None else have | defs
        return out

    def transfer_instruction(self, pc: int, inst: Instruction,
                             fact: ReachingFact) -> ReachingFact:
        if inst.is_call:
            effects = self._calls.get(pc, _UNKNOWN_CALL)
            out = dict(fact)
            site = frozenset({pc})
            for reg in mask_iter(effects.clobbered & ~(1 << RA)):
                have = out.get(reg)
                out[reg] = site if have is None else have | site
            out[inst.destination_register() or RA] = site
            return out
        dest = inst.destination_register()
        if dest is None:
            return fact
        out = dict(fact)
        out[dest] = frozenset({pc})
        return out


# ---------------------------------------------------------------------------
# Value ranges / constant propagation (forward, reg -> Interval)
# ---------------------------------------------------------------------------
#: A constants fact: register -> interval, absent key = unknown (TOP).
#: The distinguished BOTTOM sentinel marks not-yet-reached blocks.
ConstFact = "dict[int, Interval] | _Bottom"


class ConstantRangeAnalysis(DataflowAnalysis[object]):
    """Interval abstract interpretation of the integer register file."""

    direction = Direction.FORWARD

    def __init__(self, image: ProgramImage,
                 call_effects: dict[int, CallEffects]) -> None:
        super().__init__(image)
        self._calls = call_effects

    def boundary(self, graph: FlowGraph) -> object:
        return {ZERO: Interval(0, 0)}

    def initial(self, graph: FlowGraph) -> object:
        return BOTTOM

    def join(self, a: object, b: object) -> object:
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        assert isinstance(a, dict) and isinstance(b, dict)
        out: dict[int, Interval] = {}
        for reg, iv in a.items():
            other = b.get(reg)
            if other is not None:
                out[reg] = _hull(iv, other)
        return out

    def widen(self, old: object, new: object) -> object:
        """Drop any still-growing interval to TOP (absent key)."""
        if old is BOTTOM or new is BOTTOM:
            return new
        assert isinstance(old, dict) and isinstance(new, dict)
        out: dict[int, Interval] = {}
        for reg, iv in new.items():
            prev = old.get(reg)
            if prev is not None and iv.within(prev):
                out[reg] = iv
        return out

    def transfer_instruction(self, pc: int, inst: Instruction,
                             fact: object) -> object:
        if fact is BOTTOM:
            return fact
        assert isinstance(fact, dict)
        if inst.is_call:
            effects = self._calls.get(pc, _UNKNOWN_CALL)
            out = {reg: iv for reg, iv in fact.items()
                   if not (effects.clobbered >> reg) & 1}
            out[inst.destination_register() or RA] = Interval(
                pc + INSTRUCTION_BYTES, pc + INSTRUCTION_BYTES)
            return out
        dest = inst.destination_register()
        if dest is None:
            return fact
        value = self._evaluate(pc, inst, fact)
        out = dict(fact)
        if value is None:
            out.pop(dest, None)
        else:
            out[dest] = value
        return out

    # -- per-opcode abstract evaluation --------------------------------
    def _evaluate(self, pc: int, inst: Instruction,
                  fact: dict[int, Interval]) -> Optional[Interval]:
        op = inst.op

        def src1() -> Optional[Interval]:
            return (Interval(0, 0) if inst.rs1 == ZERO
                    else fact.get(inst.rs1))

        def src2() -> Optional[Interval]:
            return (Interval(0, 0) if inst.rs2 == ZERO
                    else fact.get(inst.rs2))

        if op is Opcode.LUI:
            value = (inst.imm & 0xFFFF) << 16
            return _interval(value, value)
        if op is Opcode.ADDI:
            a = src1()
            return None if a is None else _interval(a.lo + inst.imm,
                                                    a.hi + inst.imm)
        if op is Opcode.ADD:
            a, b = src1(), src2()
            if a is None or b is None:
                return None
            return _interval(a.lo + b.lo, a.hi + b.hi)
        if op is Opcode.SUB:
            a, b = src1(), src2()
            if a is None or b is None:
                return None
            return _interval(a.lo - b.hi, a.hi - b.lo)
        if op is Opcode.ANDI:
            if inst.imm < 0:
                return None
            a = src1()
            if a is not None and a.lo >= 0:
                return Interval(0, min(a.hi, inst.imm))
            return Interval(0, inst.imm)
        if op is Opcode.AND:
            a, b = src1(), src2()
            if a is None or b is None:
                return None
            if a.is_const and b.is_const:
                return Interval(a.lo & b.lo, a.lo & b.lo)
            if a.lo >= 0 and b.lo >= 0:
                return Interval(0, min(a.hi, b.hi))
            return None
        if op is Opcode.ORI:
            a = src1()
            if a is None:
                return None
            if a.is_const and inst.imm >= 0:
                value = a.lo | inst.imm
                return _interval(value, value)
            if a.lo >= 0 and inst.imm >= 0:
                return _interval(max(a.lo, inst.imm), a.hi + inst.imm)
            return None
        if op is Opcode.OR:
            a, b = src1(), src2()
            if a is None or b is None:
                return None
            if a.is_const and b.is_const:
                return _interval(a.lo | b.lo, a.lo | b.lo)
            if a.lo >= 0 and b.lo >= 0:
                return _interval(max(a.lo, b.lo), a.hi + b.hi)
            return None
        if op is Opcode.XORI:
            a = src1()
            if a is None:
                return None
            if a.is_const:
                return _interval(a.lo ^ inst.imm, a.lo ^ inst.imm)
            if a.lo >= 0 and inst.imm >= 0:
                return _interval(0, a.hi + inst.imm)
            return None
        if op is Opcode.XOR:
            a, b = src1(), src2()
            if a is not None and b is not None and a.is_const and b.is_const:
                return _interval(a.lo ^ b.lo, a.lo ^ b.lo)
            return None
        if op in (Opcode.SLT, Opcode.SLTI):
            return Interval(0, 1)
        if op in (Opcode.SLLI, Opcode.SLL, Opcode.SRLI, Opcode.SRL):
            a = src1()
            if op in (Opcode.SLLI, Opcode.SRLI):
                shift: Optional[int] = inst.imm
            else:
                b = src2()
                shift = b.lo if b is not None and b.is_const else None
            if a is None or shift is None or not 0 <= shift < 32:
                return None
            if op in (Opcode.SLLI, Opcode.SLL):
                return _interval(a.lo << shift, a.hi << shift)
            if a.lo < 0:
                return None     # logical right shift of negatives
            return Interval(a.lo >> shift, a.hi >> shift)
        if op is Opcode.MUL:
            a, b = src1(), src2()
            if a is None or b is None:
                return None
            if a.is_const and b.is_const:
                return _interval(a.lo * b.lo, a.lo * b.lo)
            if a.lo >= 0 and b.lo >= 0:
                return _interval(a.lo * b.lo, a.hi * b.hi)
            return None
        if op is Opcode.SADD:
            a, b = src1(), src2()
            if a is None or b is None:
                return None
            return _interval((a.lo << inst.sh1) + (b.lo << inst.sh2)
                             + inst.imm,
                             (a.hi << inst.sh1) + (b.hi << inst.sh2)
                             + inst.imm)
        # Loads, divides, and anything else: unknown.
        return None


# ---------------------------------------------------------------------------
# Stack-pointer delta (forward, int offset from the entry SP)
# ---------------------------------------------------------------------------
class SPDeltaAnalysis(DataflowAnalysis[object]):
    """SP offset relative to procedure entry: ``int``, TOP, or BOTTOM.

    Only the idiomatic ``ADDI sp, sp, imm`` adjustments track; any
    other write to SP degrades to TOP.  Calls preserve the delta when
    every possible callee is proven frame-balanced.
    """

    direction = Direction.FORWARD

    def __init__(self, image: ProgramImage,
                 call_effects: dict[int, CallEffects]) -> None:
        super().__init__(image)
        self._calls = call_effects

    def boundary(self, graph: FlowGraph) -> object:
        return 0

    def initial(self, graph: FlowGraph) -> object:
        return BOTTOM

    def join(self, a: object, b: object) -> object:
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        return a if a == b else TOP

    def transfer_instruction(self, pc: int, inst: Instruction,
                             fact: object) -> object:
        if fact is BOTTOM:
            return fact
        if inst.is_call:
            effects = self._calls.get(pc, _UNKNOWN_CALL)
            return fact if effects.sp_balanced else TOP
        if (inst.op is Opcode.ADDI and inst.rd == SP
                and inst.rs1 == SP):
            return TOP if fact is TOP else int(fact) + inst.imm  # type: ignore[call-overload]
        if inst.destination_register() == SP:
            return TOP
        return fact


# ---------------------------------------------------------------------------
# Procedure summaries (interprocedural layer)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProcedureSummary:
    """One procedure's externally visible register/stack effects.

    ``clobbered``/``used`` are may-effect bitmasks *as seen by a
    caller*: callee-saved registers the procedure provably restores are
    excluded from ``clobbered``, and ``used`` holds only *upward-
    exposed* reads — caller values that may be consumed before any
    definition, by the procedure or transitively by its callees.
    ``preserved`` is the proven save/restore set; ``sp_balanced`` says
    every return leaves SP exactly where the caller had it.
    """

    name: str
    clobbered: int
    used: int
    preserved: int
    sp_balanced: bool


class ProcedureSummaries:
    """Bottom-up interprocedural summaries over the call graph.

    Recursion is handled by a fixpoint: effects only grow (and
    ``sp_balanced`` only falls), both lattices are finite, so the
    iteration terminates.  Each round reads the effects snapshot taken
    at its start, and a procedure is re-solved only when a callee's
    fact in that snapshot changed since its last solve — the skipped
    solve would return its previous result — so the rounds, and every
    summary, are those of re-solving every procedure every round.
    ``solves`` counts the :func:`solve` calls made.
    """

    def __init__(self, cfg: RecoveredCFG,
                 callgraph: StaticCallGraph) -> None:
        self.cfg = cfg
        self.callgraph = callgraph
        image = cfg.image
        #: call-site pc -> callee names (possibly empty when unknown).
        self.site_targets: dict[int, tuple[str, ...]] = {
            site.pc: site.targets for site in callgraph.sites}
        self.solves = 0

        procs = cfg.procedures
        local_writes: dict[str, int] = {}
        call_pcs: dict[str, list[int]] = {}
        #: callee name -> procedures with a reachable call site naming it.
        callers: dict[str, set[str]] = {}
        self._graphs: dict[str, FlowGraph] = {}
        for proc in procs:
            graph = build_flow_graph(cfg, proc)
            self._graphs[proc.name] = graph
            writes = 0
            sites: list[int] = []
            for start in graph.nodes:
                for pc, inst in cfg.rows[start]:
                    dest = inst.destination_register()
                    if dest is not None:
                        writes |= 1 << dest
                    if inst.is_call:
                        sites.append(pc)
                        for callee in self.site_targets.get(pc, ()):
                            callers.setdefault(callee, set()).add(
                                proc.name)
            local_writes[proc.name] = writes
            call_pcs[proc.name] = sites

        def callers_of(changed: set[str]) -> set[str]:
            return {caller for callee in changed
                    for caller in callers.get(callee, ())}

        # -- frame balance fixpoint (balanced can only fall) -----------
        balanced = {proc.name: True for proc in procs}
        self.sp_results: dict[str, DataflowResult[object]] = {}
        dirty = set(balanced)
        for _ in range(len(procs) + 1):
            effects = self._effects_map(balanced, {}, {})
            flipped: set[str] = set()
            for proc in procs:
                if proc.name not in dirty:
                    continue
                result = self._solve(SPDeltaAnalysis(image, effects), proc)
                self.sp_results[proc.name] = result
                ok = self._returns_balanced(proc, result)
                if ok != balanced[proc.name]:
                    balanced[proc.name] = ok
                    flipped.add(proc.name)
            if not flipped:
                break
            dirty = callers_of(flipped)

        # -- callee-saved detection (needs the final SP facts) ---------
        preserved = {proc.name: self._preserved_mask(
            proc, self.sp_results[proc.name]) for proc in procs}

        # -- may-clobber / upward-exposed-use fixpoint -----------------
        # ``used`` is the *caller-visible* read set: registers whose
        # value at the call site may be consumed before any definition,
        # by the procedure itself or transitively by a callee.  That is
        # exactly the live-in fact of an exits-dead liveness solve —
        # which itself consumes the current effects estimate at call
        # sites, so it sits inside the same growing fixpoint as
        # ``clobbered`` (both masks only gain bits; terminates).
        # ``clob`` is a cheap fold over the in-place ``clobbered`` map
        # and is recomputed for every procedure every round; only the
        # liveness solve, which reads callees' ``used`` from the round's
        # snapshot, is skipped when none of those changed last round.
        clobbered = {p.name: local_writes[p.name] for p in procs}
        used = {p.name: 0 for p in procs}
        dirty = set(used)
        for _ in range(len(procs) + 1):
            effects = self._effects_map(balanced, clobbered, used)
            changed = False
            grew: set[str] = set()
            for proc in procs:
                clob = local_writes[proc.name]
                for pc in call_pcs[proc.name]:
                    targets = self.site_targets.get(pc, ())
                    if not targets:
                        clob |= ALL_REGS_MASK
                        continue
                    for callee in targets:
                        clob |= clobbered.get(callee, ALL_REGS_MASK)
                clob &= ~preserved[proc.name] & ~(1 << ZERO)
                use = used[proc.name]
                if proc.name in dirty and self._graphs[proc.name].nodes:
                    analysis = LivenessAnalysis(image, effects,
                                                exit_boundary=0)
                    use = self._solve(analysis, proc).in_facts.get(
                        proc.start, 0)
                if use != used[proc.name]:
                    grew.add(proc.name)
                if clob != clobbered[proc.name] or use != used[proc.name]:
                    clobbered[proc.name] = clob
                    used[proc.name] = use
                    changed = True
            if not changed:
                break
            dirty = callers_of(grew)

        self.summaries: dict[str, ProcedureSummary] = {
            proc.name: ProcedureSummary(
                name=proc.name,
                clobbered=clobbered[proc.name],
                used=used[proc.name],
                preserved=preserved[proc.name],
                sp_balanced=balanced[proc.name],
            ) for proc in procs}
        self.call_effects: dict[int, CallEffects] = self._effects_map(
            balanced, clobbered, used)

    def _solve(self, analysis: DataflowAnalysis[F],
               proc: ProcedureRange) -> DataflowResult[F]:
        self.solves += 1
        return solve(analysis, self.cfg, graph=self._graphs[proc.name])

    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> ProcedureSummary:
        return self.summaries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.summaries

    def _effects_map(self, balanced: dict[str, bool],
                     clobbered: dict[str, int],
                     used: dict[str, int]) -> dict[int, CallEffects]:
        effects: dict[int, CallEffects] = {}
        for pc, targets in self.site_targets.items():
            if not targets:
                effects[pc] = _UNKNOWN_CALL
                continue
            clob = use = 0
            ok = True
            for callee in targets:
                clob |= clobbered.get(callee, ALL_REGS_MASK)
                use |= used.get(callee, ALL_REGS_MASK)
                ok = ok and balanced.get(callee, False)
            effects[pc] = CallEffects(clobbered=clob, used=use,
                                      sp_balanced=ok)
        return effects

    def _returns_balanced(self, proc: ProcedureRange,
                          result: DataflowResult[object]) -> bool:
        """Every reachable return leaves SP at delta zero."""
        for start in result.graph.nodes:
            block = self.cfg.blocks[start]
            if block.terminator != "return":
                continue
            delta = result.out_facts[start]
            if delta is BOTTOM:
                continue            # return never reached in-graph
            if delta != 0:
                return False
        return True

    def _preserved_mask(self, proc: ProcedureRange,
                        sp: DataflowResult[object]) -> int:
        """Callee-saved registers proven saved/restored by ``proc``.

        The prologue pattern ``SW r, k(sp)`` (before any other
        definition of ``r``) establishes a candidate slot at the
        entry-relative offset ``delta + k``; every reachable return
        block must reload ``r`` from the same slot, and no other
        SP-based store may alias it.  Only SP-based stores are
        considered frame writes — the stack-discipline rules (SD002)
        independently flag any other store that could reach the stack
        segment, so treating them as non-aliasing here is safe.
        """
        cfg = self.cfg
        graph = sp.graph
        if proc.start not in cfg.blocks or not graph.nodes:
            return 0
        image = cfg.image
        entry_rows = sp.instruction_facts(cfg, proc.start)

        candidates: dict[int, int] = {}      # reg -> entry-relative slot
        defined = 0
        for pc, inst, fact in entry_rows:
            if (inst.op is Opcode.SW and inst.rs1 == SP
                    and isinstance(fact, int)
                    and inst.rs2 != ZERO
                    and not (defined >> inst.rs2) & 1
                    and inst.rs2 not in candidates):
                candidates[inst.rs2] = fact + inst.imm
            dest = inst.destination_register()
            if dest is not None:
                defined |= 1 << dest
            if inst.is_call:
                break               # callee may observe anything
        if not candidates:
            return 0

        slots = set(candidates.values())
        entry_saves = {pc for pc, inst, fact in entry_rows
                       if inst.op is Opcode.SW and inst.rs1 == SP
                       and isinstance(fact, int)
                       and fact + inst.imm in slots}

        returns = [start for start in graph.nodes
                   if cfg.blocks[start].terminator == "return"
                   and sp.in_facts[start] is not BOTTOM]
        if not returns:
            return 0

        preserved = dict(candidates)
        for start in graph.nodes:
            rows = sp.instruction_facts(cfg, start)
            restored: dict[int, bool] = {}
            for pc, inst, fact in rows:
                if (inst.op is Opcode.SW and inst.rs1 == SP
                        and pc not in entry_saves):
                    # A second store into a save slot (or an unknown-
                    # delta SP store) voids any candidate it may alias.
                    if isinstance(fact, int):
                        hit = fact + inst.imm
                        for reg, slot in list(preserved.items()):
                            if slot == hit:
                                del preserved[reg]
                    else:
                        preserved.clear()
                if (inst.op is Opcode.LW and inst.rs1 == SP
                        and isinstance(fact, int)):
                    for reg, slot in preserved.items():
                        if (inst.rd == reg
                                and fact + inst.imm == slot):
                            restored[reg] = True
                elif inst.destination_register() in preserved:
                    restored[inst.destination_register()] = False  # type: ignore[index]
            if start in returns:
                for reg in list(preserved):
                    if not restored.get(reg, False):
                        del preserved[reg]
            if not preserved:
                return 0
        return mask_of(iter(preserved))


# ---------------------------------------------------------------------------
# Loop trip-count bounding
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TripBound:
    """Static iteration-count bounds for one natural loop."""

    header: int
    lo: int
    hi: int

    @property
    def is_degenerate(self) -> bool:
        """At most one iteration: the back edge can never be taken."""
        return self.hi <= 1


def bound_trip_counts(facts: "StaticFacts",
                      proc: ProcedureRange) -> dict[int, TripBound]:
    """Trip bounds for counted loops of ``proc``, keyed by header block.

    Recognises the canonical counted-loop shape: a single back-edge
    conditional ``BLT counter, limit``, a unique in-loop definition of
    the counter that is ``ADDI counter, counter, step`` with positive
    step, a loop-invariant limit with a known value range, and a known
    counter value on loop entry.  Anything else is left unbounded
    (absent from the result) — soundly, since consumers only use
    *present* bounds.
    """
    cfg = facts.cfg
    image = cfg.image
    graph = facts.flow_graph(proc)
    const = facts.constants(proc)
    bounds: dict[int, TripBound] = {}

    for loop in facts.loops(proc):
        if len(loop.back_edges) != 1:
            continue
        source, header = loop.back_edges[0]
        block = cfg.blocks[source]
        if block.terminator != "branch":
            continue
        branch_pc = block.end - INSTRUCTION_BYTES
        branch = image.try_fetch(branch_pc)
        if (branch is None or branch.op is not Opcode.BLT
                or branch_pc + branch.imm != header):
            continue
        counter, limit = branch.rs1, branch.rs2

        step: Optional[int] = None
        well_formed = True
        for body_start in sorted(loop.body):
            for pc, inst in cfg.rows[body_start]:
                dest = inst.destination_register()
                if dest == limit:
                    well_formed = False     # limit not loop-invariant
                elif dest == counter:
                    if (inst.op is Opcode.ADDI and inst.rs1 == counter
                            and inst.imm > 0 and step is None):
                        step = inst.imm
                    else:
                        well_formed = False
                if inst.is_call:
                    effects = facts.summaries.call_effects.get(
                        pc, _UNKNOWN_CALL)
                    if (effects.clobbered >> counter) & 1 \
                            or (effects.clobbered >> limit) & 1:
                        well_formed = False
        if not well_formed or step is None:
            continue

        # Counter value on loop entry: join of the non-back-edge
        # predecessors of the header.
        init: Optional[Interval] = None
        seen_preheader = False
        for pred in graph.preds.get(header, ()):
            if pred in loop.body:
                continue
            seen_preheader = True
            fact = const.out_facts.get(pred)
            if not isinstance(fact, dict):
                init = None
                break
            iv = fact.get(counter)
            if iv is None:
                init = None
                break
            init = iv if init is None else _hull(init, iv)
        if not seen_preheader or init is None:
            continue

        # Limit range at the branch itself.
        limit_iv: Optional[Interval] = None
        for pc, _inst, fact in const.instruction_facts(cfg, source):
            if pc == branch_pc and isinstance(fact, dict):
                limit_iv = fact.get(limit)
        if limit_iv is None:
            continue

        # Do-while rotation: the body always runs once, then repeats
        # while counter < limit.
        lo = max(1, math.ceil((limit_iv.lo - init.hi) / step))
        hi = max(1, math.ceil((limit_iv.hi - init.lo) / step))
        bounds[header] = TripBound(header=header, lo=lo, hi=hi)
    return bounds


# ---------------------------------------------------------------------------
# Dataflow-driven jump-table resolution
# ---------------------------------------------------------------------------
def table_load_slice(facts: "StaticFacts", proc: ProcedureRange,
                     pc: int) -> Optional[tuple[int, int]]:
    """Byte-address bounds ``[lo, hi]`` of the table load feeding the
    indirect transfer at ``pc``, when the interval analysis bounds it.

    The slice is the address range the feeding ``LW`` may read — the
    masked index was propagated through its shift and the add onto the
    constant table base, so the load-address interval *is* the set of
    table words the transfer can select.  ``None`` when the feeding
    load cannot be identified or its address is unbounded (degenerate
    strides and slices wider than :data:`_TABLE_CAP` words included).
    """
    cfg = facts.cfg
    image = cfg.image
    inst = image.try_fetch(pc)
    if inst is None or not inst.is_indirect:
        return None
    block = cfg.block_at(pc)
    if block is None or block.start not in facts.flow_graph(proc).succs:
        return None
    target = inst.rs1

    rows = facts.constants(proc).instruction_facts(cfg, block.start)
    load: Optional[tuple[int, Instruction, dict[int, Interval]]] = None
    for row_pc, row_inst, row_fact in rows:
        if row_pc >= pc:
            break
        if row_inst.destination_register() == target:
            if row_inst.op is Opcode.LW and isinstance(row_fact, dict):
                load = (row_pc, row_inst, row_fact)
            else:
                load = None
    if load is None:
        return None
    _load_pc, load_inst, load_fact = load
    base = (Interval(0, 0) if load_inst.rs1 == ZERO
            else load_fact.get(load_inst.rs1))
    if base is None:
        return None
    lo = base.lo + load_inst.imm
    hi = base.hi + load_inst.imm
    if (hi - lo) % INSTRUCTION_BYTES or \
            (hi - lo) // INSTRUCTION_BYTES + 1 > _TABLE_CAP:
        return None
    return lo, hi


def resolve_table_via_dataflow(facts: "StaticFacts", proc: ProcedureRange,
                               pc: int) -> Optional[tuple[int, ...]]:
    """Resolve the table feeding the indirect transfer at ``pc``.

    Where :func:`repro.static.recovery.resolve_indirect_table` pattern-
    matches the producing instruction window, this walks the *value
    range* of the table-load address (:func:`table_load_slice`).  Every
    word in the slice must be a relocated code address; otherwise the
    site stays unresolved (``None``).
    """
    span = table_load_slice(facts, proc, pc)
    if span is None:
        return None
    lo, hi = span
    cfg = facts.cfg
    targets: list[int] = []
    for addr in range(lo, hi + 1, INSTRUCTION_BYTES):
        entry = cfg.reloc_targets.get(addr)
        if entry is None:
            return None
        targets.append(entry)
    return tuple(targets)


# ---------------------------------------------------------------------------
# Shared lazy fact cache
# ---------------------------------------------------------------------------
class StaticFacts:
    """Lazily computed, memoised analysis results for one image.

    The verifier's dataflow rules and the trace predictor both pull
    from one instance, so each (analysis, procedure) pair is solved at
    most once per image.
    """

    def __init__(self, image: ProgramImage,
                 cfg: Optional[RecoveredCFG] = None,
                 callgraph: Optional[StaticCallGraph] = None) -> None:
        self.image = image
        self._cfg = cfg
        self._callgraph = callgraph
        self._graphs: dict[int, FlowGraph] = {}
        self._dominators: dict[int, DominatorTree] = {}
        self._loops: dict[int, list[NaturalLoop]] = {}
        self._liveness: dict[int, DataflowResult[int]] = {}
        self._liveness_local: dict[int, DataflowResult[int]] = {}
        self._reaching: dict[int, DataflowResult[ReachingFact]] = {}
        self._constants: dict[int, DataflowResult[object]] = {}
        self._trip_bounds: dict[int, dict[int, TripBound]] = {}

    @cached_property
    def cfg(self) -> RecoveredCFG:
        return self._cfg if self._cfg is not None \
            else RecoveredCFG(self.image)

    @cached_property
    def callgraph(self) -> StaticCallGraph:
        return self._callgraph if self._callgraph is not None \
            else StaticCallGraph(self.cfg)

    @cached_property
    def summaries(self) -> ProcedureSummaries:
        return ProcedureSummaries(self.cfg, self.callgraph)

    # ------------------------------------------------------------------
    def flow_graph(self, proc: ProcedureRange) -> FlowGraph:
        graph = self._graphs.get(proc.start)
        if graph is None:
            graph = self.summaries._graphs.get(proc.name) \
                or build_flow_graph(self.cfg, proc)
            self._graphs[proc.start] = graph
        return graph

    def dominators(self, proc: ProcedureRange) -> DominatorTree:
        tree = self._dominators.get(proc.start)
        if tree is None:
            tree = DominatorTree(self.cfg, proc,
                                 graph=self.flow_graph(proc))
            self._dominators[proc.start] = tree
        return tree

    def loops(self, proc: ProcedureRange) -> list[NaturalLoop]:
        loops = self._loops.get(proc.start)
        if loops is None:
            loops = find_loops(self.dominators(proc))
            self._loops[proc.start] = loops
        return loops

    def liveness(self, proc: ProcedureRange) -> DataflowResult[int]:
        result = self._liveness.get(proc.start)
        if result is None:
            analysis = LivenessAnalysis(self.image,
                                        self.summaries.call_effects)
            result = solve(analysis, self.cfg,
                           graph=self.flow_graph(proc))
            self._liveness[proc.start] = result
        return result

    def liveness_local(self, proc: ProcedureRange) -> DataflowResult[int]:
        """Liveness restricted to intra-procedural uses (exits dead)."""
        result = self._liveness_local.get(proc.start)
        if result is None:
            analysis = LivenessAnalysis(self.image,
                                        self.summaries.call_effects,
                                        exit_boundary=0)
            result = solve(analysis, self.cfg,
                           graph=self.flow_graph(proc))
            self._liveness_local[proc.start] = result
        return result

    def reaching(self, proc: ProcedureRange
                 ) -> DataflowResult[ReachingFact]:
        result = self._reaching.get(proc.start)
        if result is None:
            analysis = ReachingDefsAnalysis(self.image,
                                            self.summaries.call_effects)
            result = solve(analysis, self.cfg,
                           graph=self.flow_graph(proc))
            self._reaching[proc.start] = result
        return result

    def constants(self, proc: ProcedureRange) -> DataflowResult[object]:
        result = self._constants.get(proc.start)
        if result is None:
            analysis = ConstantRangeAnalysis(
                self.image, self.summaries.call_effects)
            result = solve(analysis, self.cfg,
                           graph=self.flow_graph(proc))
            self._constants[proc.start] = result
        return result

    def sp_delta(self, proc: ProcedureRange) -> DataflowResult[object]:
        return self.summaries.sp_results[proc.name]

    def trip_bounds(self, proc: ProcedureRange) -> dict[int, TripBound]:
        bounds = self._trip_bounds.get(proc.start)
        if bounds is None:
            bounds = bound_trip_counts(self, proc)
            self._trip_bounds[proc.start] = bounds
        return bounds

    # ------------------------------------------------------------------
    def live_procedures(self) -> list[ProcedureRange]:
        """Procedures reachable from the entry, in address order."""
        live = self.callgraph.live
        return [proc for proc in self.cfg.procedures
                if proc.name in live]
