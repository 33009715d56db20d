"""Program verifier: named, severity-tagged lint rules over an image.

Machine-checks the structural invariants every other subsystem relies
on.  The workload generator runs this as a post-generation gate (any
ERROR aborts generation; it runs only the ERROR-capable rules, see
:func:`verify_image`'s ``errors_only``), and ``python -m repro analyze``
exposes the full set as a lint report.  Each rule maps to a cue the
paper's mechanisms depend on; the severity column is the most severe
level the rule may emit, as declared by its ``@rule`` registration:

=======  ========  ====================================================
Rule     Max       Invariant (paper cue it protects)
=======  ========  ====================================================
SD001    ERROR     Control never flows across a procedure boundary
                   except through a call — a clobbered RET breaks the
                   call/return pairing the start-point stack and RAS
                   assume (§3.1).
SD002    WARNING   Every reachable RET belongs to a procedure some call
                   can enter (a return with no matching call underflows
                   the RAS).
SD003    WARNING   The static call-depth bound exists (no recursion)
                   and fits the return-address stack.
JT001    ERROR     Every jump-table / function-pointer relocation lands
                   on an instruction boundary inside the image — the
                   constructor walks these targets (§3.4).
DC001    WARNING   No unreachable code inside live procedures (the
                   generator must not emit blocks no path enters).
CF001    WARNING   All cycles are natural loops (irreducible control
                   flow defeats the backward-branch region cue).
CF002    ERROR     Direct branch/jump/call targets are instruction-
                   aligned addresses inside the image.
BB001    ERROR     The emitted branch pattern matches the generator's
                   bias intent — biased diamonds carry the strong mask,
                   weak diamonds the weak mask, loop back edges point
                   backward (the §3.4 bias heuristic keys off these).
SD004    ERROR     Every return path leaves SP exactly where the caller
                   had it (a skewed frame corrupts the callee-save
                   slots the call/return pairing depends on).  Degrades
                   to WARNING when balance merely cannot be proven.
SD005    ERROR     The return address consumed by a return is the entry
                   value or a frame restore — a RET through a clobbered
                   RA breaks the RAS pairing exactly like SD001.
JT002    ERROR     The value range of a jump-table index stays inside
                   the relocated table (an escaping index dispatches
                   through arbitrary data).
DF001    WARNING   No register is read while its only reaching
                   definition is the procedure entry and the procedure
                   never defines it (an uninitialised read executes on
                   whatever garbage the previous callee left).
DF002    INFO      Stores whose value is provably overwritten before
                   any read (write-after-write); generator filler emits
                   these by design, so informational only.
DF003    WARNING   No caller-live register is exposed to a callee that
                   may clobber it (a missing save slot).
CP001    INFO      No conditional branch is statically decided by the
                   value-range analysis (a constant branch carries no
                   bias information and wastes a predictor slot).
LT001    INFO      No counted loop is degenerate (trip bound ≤ 1: the
                   backward-branch region cue never fires for it).
=======  ========  ====================================================

The dataflow-backed rules (SD004 onward) pull liveness, reaching
definitions, value ranges, SP deltas, and interprocedural summaries
from one shared lazy :class:`~repro.static.analyses.StaticFacts`, so an
image is analysed once no matter how many rules run.

Procedures that are never referenced at all (no call edge, no
function-pointer table entry) are linker garbage, not findings; they
are reported via :attr:`VerificationReport.dead_procedures`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

from repro.isa import INSTRUCTION_BYTES, Opcode
from repro.isa.registers import RA, SP, ZERO
from repro.program.image import ProgramImage
from repro.static.analyses import (
    ALL_REGS_MASK,
    BOTTOM,
    ENTRY_DEF,
    CallEffects,
    Interval,
    StaticFacts,
    mask_iter,
    mask_of,
    table_load_slice,
)
from repro.static.callgraph import StaticCallGraph
from repro.static.dominators import DominatorTree, irreducible_components
from repro.static.recovery import ProcedureRange, RecoveredCFG

#: Default return-address-stack depth checked by SD003 (matches
#: :class:`repro.branch.ReturnAddressStack`).
DEFAULT_RAS_DEPTH = 32

#: Branch-intent kinds recorded by the workload generator, with the
#: ANDI mask each diamond intent must carry.
STRONG_DIAMOND_MASK = 63
WEAK_DIAMOND_MASK = 1

#: Registers with process-global roles in the generated calling
#: convention: the hardwired zero, the data/scratch segment bases
#: (r13/r14), the driver's phase counter (r15), the shared data cursor
#: (r20), SP and RA.  They are initialised once by the startup stub (or
#: by the hardware, for SP/RA) and flow across every procedure, so
#: per-procedure def-use rules must not treat their entry values as
#: uninitialised or unpreserved.
CONVENTION_REGS = frozenset({ZERO, 13, 14, 15, 20, SP, RA})
CONVENTION_MASK = mask_of(iter(CONVENTION_REGS))


class Severity(enum.Enum):
    """Lint severity; ERROR findings abort workload generation."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at (usually) one instruction address."""

    rule_id: str
    severity: Severity
    message: str
    pc: Optional[int] = None
    procedure: Optional[str] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "pc": self.pc,
            "procedure": self.procedure,
        }

    def __str__(self) -> str:
        where = f" at {self.pc:#x}" if self.pc is not None else ""
        proc = f" [{self.procedure}]" if self.procedure else ""
        return (f"{self.rule_id} {self.severity.value}{where}{proc}: "
                f"{self.message}")


#: Conservative call effects for a site with no resolved targets.
_UNKNOWN_CALL = CallEffects(clobbered=ALL_REGS_MASK, used=ALL_REGS_MASK,
                            sp_balanced=False)


@dataclass
class VerifierContext:
    """Everything a rule may inspect."""

    image: ProgramImage
    cfg: RecoveredCFG
    callgraph: StaticCallGraph
    intents: Mapping[int, str]
    ras_depth: int
    _facts: Optional[StaticFacts] = None

    @property
    def facts(self) -> StaticFacts:
        """Lazy shared dataflow facts; built on first dataflow rule."""
        if self._facts is None:
            self._facts = StaticFacts(self.image, cfg=self.cfg,
                                      callgraph=self.callgraph)
        return self._facts

    def live_procedures(self) -> Iterator[ProcedureRange]:
        """Live procedures with at least one reachable block."""
        for proc in self.cfg.procedures:
            if (proc.name in self.callgraph.live
                    and self.cfg.reachable_blocks(proc)):
                yield proc


RuleFn = Callable[[VerifierContext], Iterator[LintFinding]]

#: Registry of (description, most severe level emitted, check) per rule
#: ID, in report order.
RULES: dict[str, tuple[str, Severity, RuleFn]] = {}

_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


def rule(rule_id: str, max_severity: Severity,
         description: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule that emits findings no more severe than
    ``max_severity`` (:func:`verify_image` enforces the bound)."""
    def register(fn: RuleFn) -> RuleFn:
        RULES[rule_id] = (description, max_severity, fn)
        return fn
    return register


class RuleSeverityError(RuntimeError):
    """A rule emitted a finding more severe than its registration
    declares — the ``errors_only`` gate would have skipped it."""


@dataclass
class VerificationReport:
    """Outcome of one verifier run."""

    findings: list[LintFinding] = field(default_factory=list)
    dead_procedures: tuple[str, ...] = ()
    rules_run: tuple[str, ...] = ()

    @property
    def errors(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_rule(self, rule_id: str) -> list[LintFinding]:
        return [f for f in self.findings if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# Stack discipline
# ----------------------------------------------------------------------
@rule("SD001", Severity.ERROR,
      "control flow crosses a procedure boundary without a call")
def _check_boundary_flow(ctx: VerifierContext) -> Iterator[LintFinding]:
    cfg = ctx.cfg
    for proc in cfg.procedures:
        if proc.name not in ctx.callgraph.live:
            continue
        for start in sorted(cfg.reachable_blocks(proc)):
            block = cfg.blocks[start]
            if block.terminator == "end":
                yield LintFinding(
                    "SD001", Severity.ERROR,
                    "control runs off the end of the image",
                    pc=block.end - INSTRUCTION_BYTES, procedure=proc.name)
                continue
            for succ in block.successors:
                if succ not in proc:
                    yield LintFinding(
                        "SD001", Severity.ERROR,
                        f"{block.terminator} edge leaves "
                        f"{proc.name!r} for {succ:#x}",
                        pc=block.end - INSTRUCTION_BYTES,
                        procedure=proc.name)


@rule("SD002", Severity.WARNING,
      "callable procedure with no reachable return")
def _check_return_matching(ctx: VerifierContext) -> Iterator[LintFinding]:
    cfg = ctx.cfg
    graph = ctx.callgraph
    callable_names = graph.call_target_names()
    entry = graph.entry_procedure
    # The startup stub and its direct target (the program's true entry)
    # may run forever by design; any other callable procedure must be
    # able to return, or the RAS entry its call pushed is never popped.
    exempt = {entry}
    if entry is not None:
        exempt.update(graph.edges.get(entry, ()))
    for proc in cfg.procedures:
        if proc.name not in graph.live or proc.name in exempt:
            continue
        if proc.name not in callable_names:
            continue
        reachable = cfg.reachable_blocks(proc)
        if not any(cfg.blocks[s].terminator == "return"
                   for s in reachable):
            yield LintFinding(
                "SD002", Severity.WARNING,
                f"callable procedure {proc.name!r} has no reachable "
                f"return (its RAS entry is never popped)",
                pc=proc.start, procedure=proc.name)


@rule("SD003", Severity.WARNING,
      "static call depth unbounded or exceeds the RAS")
def _check_call_depth(ctx: VerifierContext) -> Iterator[LintFinding]:
    depth = ctx.callgraph.max_call_depth
    if depth is None:
        yield LintFinding(
            "SD003", Severity.WARNING,
            "recursive call graph: return-address-stack demand is "
            "unbounded")
    elif depth > ctx.ras_depth:
        yield LintFinding(
            "SD003", Severity.WARNING,
            f"static call depth {depth} exceeds the RAS depth "
            f"{ctx.ras_depth}")


@rule("SD004", Severity.ERROR,
      "stack pointer not restored on a return path")
def _check_frame_balance(ctx: VerifierContext) -> Iterator[LintFinding]:
    """SP-delta facts at every reachable return must be exactly zero.

    A known non-zero delta is a proven frame skew (ERROR); an unknown
    delta (a non-idiomatic SP write, or a call whose callees cannot all
    be proven balanced) only warns — balance may hold dynamically, but
    nothing downstream may rely on it.
    """
    cfg = ctx.cfg
    for proc in ctx.live_procedures():
        sp = ctx.facts.sp_delta(proc)
        for start in sp.graph.nodes:
            block = cfg.blocks[start]
            if block.terminator != "return":
                continue
            delta = sp.out_facts[start]
            if delta is BOTTOM or delta == 0:
                continue
            ret_pc = block.end - INSTRUCTION_BYTES
            if isinstance(delta, int):
                yield LintFinding(
                    "SD004", Severity.ERROR,
                    f"return leaves SP displaced by {delta:+d} bytes "
                    f"from the caller's frame", pc=ret_pc,
                    procedure=proc.name)
            else:
                yield LintFinding(
                    "SD004", Severity.WARNING,
                    "cannot prove SP is restored on this return path",
                    pc=ret_pc, procedure=proc.name)


@rule("SD005", Severity.ERROR,
      "return address clobbered on a path to a return")
def _check_return_address(ctx: VerifierContext) -> Iterator[LintFinding]:
    """Every definition of RA reaching a return must be the procedure
    entry value or a frame reload (``LW``); anything else — in
    particular a call's own link write surviving to the return — sends
    the return somewhere the matching call never came from."""
    cfg = ctx.cfg
    image = ctx.image
    for proc in ctx.live_procedures():
        reach = ctx.facts.reaching(proc)
        for start in reach.graph.nodes:
            block = cfg.blocks[start]
            if block.terminator != "return":
                continue
            ret_pc = block.end - INSTRUCTION_BYTES
            for pc, _inst, fact in reach.instruction_facts(cfg, start):
                if pc != ret_pc:
                    continue
                for def_pc in sorted(fact.get(RA, frozenset())):
                    if def_pc == ENTRY_DEF:
                        continue
                    def_inst = image.try_fetch(def_pc)
                    if def_inst is not None and def_inst.op is Opcode.LW:
                        continue
                    what = (def_inst.op.value if def_inst is not None
                            else "???")
                    yield LintFinding(
                        "SD005", Severity.ERROR,
                        f"RA consumed by this return may come from "
                        f"{def_pc:#x} ({what}), not the entry value "
                        f"or a frame restore", pc=ret_pc,
                        procedure=proc.name)


# ----------------------------------------------------------------------
# Jump tables / relocations
# ----------------------------------------------------------------------
@rule("JT001", Severity.ERROR,
      "relocated code pointer not on an instruction boundary")
def _check_jump_tables(ctx: VerifierContext) -> Iterator[LintFinding]:
    image = ctx.image
    for data_addr in sorted(ctx.cfg.reloc_targets):
        target = ctx.cfg.reloc_targets[data_addr]
        if target not in image:
            yield LintFinding(
                "JT001", Severity.ERROR,
                f"table entry at data {data_addr:#x} resolves to "
                f"{target:#x}, not an instruction in the image",
                pc=target)


@rule("JT002", Severity.ERROR,
      "jump-table index range escapes the relocated table")
def _check_table_index_range(ctx: VerifierContext) -> Iterator[LintFinding]:
    """When the value-range analysis bounds a jump-table load, every
    word the bounded address slice can touch must be a relocated code
    pointer; a slice word with no relocation means the masked index can
    select arbitrary data as a branch target."""
    cfg = ctx.cfg
    for proc in ctx.live_procedures():
        for start in sorted(cfg.reachable_blocks(proc)):
            for pc, inst in cfg.rows[start]:
                if not inst.is_indirect or inst.is_return:
                    continue
                span = table_load_slice(ctx.facts, proc, pc)
                if span is None:
                    continue        # unresolved feeds; recovery's domain
                lo, hi = span
                missing = [addr for addr
                           in range(lo, hi + 1, INSTRUCTION_BYTES)
                           if addr not in cfg.reloc_targets]
                if missing:
                    yield LintFinding(
                        "JT002", Severity.ERROR,
                        f"index range reads table words "
                        f"[{lo:#x}, {hi:#x}] but "
                        f"{len(missing)} of them (first "
                        f"{missing[0]:#x}) hold no relocated code "
                        f"pointer", pc=pc, procedure=proc.name)


# ----------------------------------------------------------------------
# Dead code
# ----------------------------------------------------------------------
@rule("DC001", Severity.WARNING,
      "unreachable code inside a live procedure")
def _check_dead_code(ctx: VerifierContext) -> Iterator[LintFinding]:
    cfg = ctx.cfg
    for proc in cfg.procedures:
        if proc.name not in ctx.callgraph.live:
            continue
        reachable = cfg.reachable_blocks(proc)
        dead = [b for b in cfg.proc_blocks(proc)
                if b.start not in reachable]
        for run_start, run_insts in _dead_runs(dead):
            yield LintFinding(
                "DC001", Severity.WARNING,
                f"{run_insts} unreachable instructions",
                pc=run_start, procedure=proc.name)


def _dead_runs(dead_blocks: list) -> Iterator[tuple[int, int]]:
    """Coalesce address-adjacent dead blocks into (start, count) runs."""
    run_start = run_end = None
    for block in sorted(dead_blocks, key=lambda b: b.start):
        if run_end == block.start:
            run_end = block.end
            continue
        if run_start is not None:
            yield run_start, (run_end - run_start) // INSTRUCTION_BYTES
        run_start, run_end = block.start, block.end
    if run_start is not None:
        yield run_start, (run_end - run_start) // INSTRUCTION_BYTES


# ----------------------------------------------------------------------
# Control flow shape
# ----------------------------------------------------------------------
@rule("CF001", Severity.WARNING,
      "irreducible loop (cycle with multiple entry points)")
def _check_irreducible(ctx: VerifierContext) -> Iterator[LintFinding]:
    cfg = ctx.cfg
    for proc in cfg.procedures:
        if proc.name not in ctx.callgraph.live:
            continue
        if not cfg.reachable_blocks(proc):
            continue
        tree = DominatorTree(cfg, proc)
        for component in irreducible_components(tree):
            yield LintFinding(
                "CF001", Severity.WARNING,
                f"irreducible cycle over {len(component)} blocks",
                pc=min(component), procedure=proc.name)


@rule("CF002", Severity.ERROR,
      "direct control-transfer target outside the image")
def _check_direct_targets(ctx: VerifierContext) -> Iterator[LintFinding]:
    image = ctx.image
    cfg = ctx.cfg
    for proc in cfg.procedures:
        if proc.name not in ctx.callgraph.live:
            continue
        for start in sorted(cfg.reachable_blocks(proc)):
            for pc, inst in cfg.rows[start]:
                if not inst.is_direct_control:
                    continue
                target = inst.taken_target(pc)
                if target is None:
                    continue
                if target not in image:
                    yield LintFinding(
                        "CF002", Severity.ERROR,
                        f"{inst.op.value} targets {target:#x}, outside "
                        f"the code segment", pc=pc, procedure=proc.name)


# ----------------------------------------------------------------------
# Branch-bias consistency (generator intent vs emitted code)
# ----------------------------------------------------------------------
_INTENT_KINDS = ("diamond_strong", "diamond_weak", "loop_back", "guard")


@rule("BB001", Severity.ERROR,
      "emitted branch contradicts the generator's bias intent")
def _check_bias_consistency(ctx: VerifierContext) -> Iterator[LintFinding]:
    image = ctx.image
    for pc in sorted(ctx.intents):
        intent = ctx.intents[pc]
        inst = image.try_fetch(pc)
        proc = ctx.cfg.procedure_of(pc)
        proc_name = proc.name if proc else None
        if inst is None or not inst.is_conditional_branch:
            yield LintFinding(
                "BB001", Severity.ERROR,
                f"intent {intent!r} recorded at {pc:#x}, but no "
                f"conditional branch is there", pc=pc, procedure=proc_name)
            continue
        if intent == "loop_back":
            if inst.imm >= 0:
                yield LintFinding(
                    "BB001", Severity.ERROR,
                    "loop back edge emitted as a forward branch",
                    pc=pc, procedure=proc_name)
            continue
        if intent in ("diamond_strong", "diamond_weak"):
            want = (STRONG_DIAMOND_MASK if intent == "diamond_strong"
                    else WEAK_DIAMOND_MASK)
            mask = _preceding_andi_mask(image, pc)
            if mask != want:
                yield LintFinding(
                    "BB001", Severity.ERROR,
                    f"{intent} diamond carries test mask {mask!r}, "
                    f"expected {want}", pc=pc, procedure=proc_name)
            if inst.imm < 0:
                yield LintFinding(
                    "BB001", Severity.ERROR,
                    "diamond branch emitted as a backward branch",
                    pc=pc, procedure=proc_name)
            continue
        if intent == "guard":
            if inst.imm < 0:
                yield LintFinding(
                    "BB001", Severity.ERROR,
                    "phase-guard branch emitted as a backward branch",
                    pc=pc, procedure=proc_name)
            continue
        yield LintFinding(
            "BB001", Severity.ERROR,
            f"unknown branch intent {intent!r}", pc=pc,
            procedure=proc_name)


def _preceding_andi_mask(image: ProgramImage, pc: int) -> Optional[int]:
    """Immediate of the ANDI feeding a masked-test branch, if any."""
    prev = image.try_fetch(pc - INSTRUCTION_BYTES)
    if prev is not None and prev.op.value == "andi":
        return prev.imm
    return None


# ----------------------------------------------------------------------
# Dataflow rules (def-use discipline, value ranges, trip counts)
# ----------------------------------------------------------------------
@rule("DF001", Severity.WARNING,
      "register read before any definition")
def _check_read_before_write(ctx: VerifierContext) -> Iterator[LintFinding]:
    """A read whose only reaching definition is the procedure entry, in
    a procedure that never defines the register itself, consumes
    whatever value the previous callee happened to leave.

    Exemptions: the convention registers (their entry values *are* the
    protocol), and the stored value of ``SW`` (spilling a caller's
    register into a save slot is exactly what callee-save prologues
    do).  Requiring *no* local definition at all keeps the generator's
    one-sided initialisation idiom (a local first defined inside one
    diamond arm, merged below the join) out of scope — the reaching set
    at such a merged read contains the arm's definition.
    """
    cfg = ctx.cfg
    for proc in ctx.live_procedures():
        reach = ctx.facts.reaching(proc)
        nodes = reach.graph.nodes
        defined = 0
        for start in nodes:
            for pc, inst in cfg.rows[start]:
                dest = inst.destination_register()
                if dest is None and inst.is_call:
                    dest = RA
                if dest is not None:
                    defined |= 1 << dest
        entry_only = frozenset({ENTRY_DEF})
        flagged: dict[int, int] = {}        # reg -> first offending pc
        for start in nodes:
            for pc, inst, fact in reach.instruction_facts(cfg, start):
                for reg in inst.source_registers():
                    if reg in CONVENTION_REGS or (defined >> reg) & 1:
                        continue
                    if inst.op is Opcode.SW and reg == inst.rs2 \
                            and reg != inst.rs1:
                        continue
                    if fact.get(reg) == entry_only and reg not in flagged:
                        flagged[reg] = pc
        for reg, pc in sorted(flagged.items(), key=lambda kv: kv[1]):
            yield LintFinding(
                "DF001", Severity.WARNING,
                f"r{reg} is read but never defined in this procedure; "
                f"the read sees leftover state", pc=pc,
                procedure=proc.name)


@rule("DF002", Severity.INFO,
      "stored value overwritten before any read")
def _check_dead_stores(ctx: VerifierContext) -> Iterator[LintFinding]:
    """Write-after-write within one procedure: the liveness boundary is
    all-registers-live at exits, so anything flagged here is provably
    re-defined before any read on *every* path.  INFO only — the
    generator's filler instructions imitate computation and produce
    such stores by design; the rule exists to quantify them and to
    catch a future generator change that turns real state updates dead.
    """
    cfg = ctx.cfg
    for proc in ctx.live_procedures():
        live = ctx.facts.liveness(proc)
        for start in live.graph.nodes:
            for pc, inst, fact in live.instruction_facts(cfg, start):
                dest = inst.destination_register()
                if dest is None or inst.is_call:
                    continue
                if not (fact >> dest) & 1:
                    yield LintFinding(
                        "DF002", Severity.INFO,
                        f"value written to r{dest} is overwritten "
                        f"before any read", pc=pc, procedure=proc.name)


@rule("DF003", Severity.WARNING,
      "caller-live register exposed to a clobbering callee")
def _check_live_across_call(ctx: VerifierContext) -> Iterator[LintFinding]:
    """Registers live after a call site that some possible callee may
    clobber (per the interprocedural summaries) need a save slot the
    code does not have.  Liveness here is the intra-procedural variant
    (exits dead): with the sound all-live exit boundary every register
    is "live" from its last write to the return and each trailing call
    would be flagged; a leftover value a *caller* consumes is DF001's
    read-before-write case in that caller.  Convention registers are
    exempt: they are *meant* to be advanced by callees (the cursor) or
    rewritten by the call itself (RA)."""
    cfg = ctx.cfg
    effects_map = ctx.facts.summaries.call_effects
    for proc in ctx.live_procedures():
        live = ctx.facts.liveness_local(proc)
        for start in live.graph.nodes:
            for pc, inst, fact in live.instruction_facts(cfg, start):
                if not inst.is_call:
                    continue
                effects = effects_map.get(pc, _UNKNOWN_CALL)
                hazard = fact & effects.clobbered & ~CONVENTION_MASK
                if hazard:
                    regs = ", ".join(f"r{r}" for r in mask_iter(hazard))
                    yield LintFinding(
                        "DF003", Severity.WARNING,
                        f"{regs} live across this call but may be "
                        f"clobbered by the callee", pc=pc,
                        procedure=proc.name)


def _branch_decided(op: Opcode, a: Interval,
                    b: Interval) -> Optional[bool]:
    """Whether interval facts statically decide a conditional branch."""
    disjoint = a.hi < b.lo or b.hi < a.lo
    both_const_eq = a.is_const and b.is_const and a.lo == b.lo
    if op is Opcode.BEQ:
        return True if both_const_eq else (False if disjoint else None)
    if op is Opcode.BNE:
        return True if disjoint else (False if both_const_eq else None)
    if op is Opcode.BLT:
        if a.hi < b.lo:
            return True
        return False if a.lo >= b.hi else None
    if op is Opcode.BGE:
        if a.lo >= b.hi:
            return True
        return False if a.hi < b.lo else None
    return None


@rule("CP001", Severity.INFO,
      "conditional branch statically decided")
def _check_constant_branches(ctx: VerifierContext) -> Iterator[LintFinding]:
    """A branch the value-range analysis already decides contributes no
    control-flow variation: it trains the bias tables on a constant and
    burns a conditional-branch slot the profile meant to be dynamic.
    INFO because single-trip loops (legitimate in fuzzed profiles)
    decide their own back edge."""
    cfg = ctx.cfg
    for proc in ctx.live_procedures():
        const = ctx.facts.constants(proc)
        for start in const.graph.nodes:
            for pc, inst, fact in const.instruction_facts(cfg, start):
                if not inst.is_conditional_branch:
                    continue
                if not isinstance(fact, dict):
                    continue
                a = (Interval(0, 0) if inst.rs1 == ZERO
                     else fact.get(inst.rs1))
                b = (Interval(0, 0) if inst.rs2 == ZERO
                     else fact.get(inst.rs2))
                if a is None or b is None:
                    continue
                decided = _branch_decided(inst.op, a, b)
                if decided is not None:
                    yield LintFinding(
                        "CP001", Severity.INFO,
                        f"branch is statically always "
                        f"{'taken' if decided else 'not taken'}",
                        pc=pc, procedure=proc.name)


@rule("LT001", Severity.INFO,
      "counted loop is degenerate (at most one trip)")
def _check_degenerate_loops(ctx: VerifierContext) -> Iterator[LintFinding]:
    """A counted loop whose trip bound proves the back edge can never
    be taken produces no backward-branch cue — the §3.1 region the
    profile asked for silently degrades to straight-line code.  INFO:
    fuzzed single-trip loops are legal inputs, just worth surfacing."""
    for proc in ctx.live_procedures():
        for header, bound in sorted(ctx.facts.trip_bounds(proc).items()):
            if bound.is_degenerate:
                yield LintFinding(
                    "LT001", Severity.INFO,
                    f"loop trip bounds [{bound.lo}, {bound.hi}]: the "
                    f"back edge is never taken", pc=header,
                    procedure=proc.name)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def verify_image(image: ProgramImage,
                 intents: Optional[Mapping[int, str]] = None,
                 ras_depth: int = DEFAULT_RAS_DEPTH,
                 cfg: Optional[RecoveredCFG] = None,
                 callgraph: Optional[StaticCallGraph] = None,
                 errors_only: bool = False,
                 ) -> VerificationReport:
    """Run every lint rule over ``image``; deterministic output order.

    ``errors_only`` runs only the rules that can emit an ERROR and keeps
    only their ERROR findings: the report's findings are then exactly
    the full report's :attr:`~VerificationReport.errors`, in the same
    order — all the workload generator's gate reads.  A finding more
    severe than its rule's declared maximum raises
    :class:`RuleSeverityError` in either mode.
    """
    cfg = cfg or RecoveredCFG(image)
    graph = callgraph or StaticCallGraph(cfg)
    ctx = VerifierContext(image=image, cfg=cfg, callgraph=graph,
                          intents=dict(intents or {}),
                          ras_depth=ras_depth)
    findings: list[LintFinding] = []
    rules_run: list[str] = []
    for rule_id, (_description, ceiling, check) in RULES.items():
        if errors_only and ceiling is not Severity.ERROR:
            continue
        rules_run.append(rule_id)
        for finding in check(ctx):
            if _RANK[finding.severity] > _RANK[ceiling]:
                raise RuleSeverityError(
                    f"rule {rule_id} declares at most {ceiling.value} "
                    f"but emitted: {finding}")
            if not errors_only or finding.severity is Severity.ERROR:
                findings.append(finding)
    findings.sort(key=lambda f: (f.severity.value, f.rule_id,
                                 f.pc if f.pc is not None else -1))
    return VerificationReport(findings=findings,
                              dead_procedures=graph.dead_procedures,
                              rules_run=tuple(rules_run))
