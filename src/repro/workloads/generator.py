"""Synthetic workload generator.

Generates *real executable programs* for the repro ISA whose control
flow has the structure that trace caches and preconstruction care
about: procedures (a call DAG rooted at ``main``), counted and
data-dependent loops, biased and weak if/else diamonds on pseudo-random
data, and jump-table switches (register-indirect dispatch).

Register conventions used by generated code:

====  =============================================================
r1-r12  procedure-local (loop counters/limits, compute temps);
        callee-saved in the prologue when used
r13   data-array base (0x40_0000), materialised in every prologue
r14   scratch-store base (0x41_0000)
r15   main's driver iteration counter
r16-r18  switch dispatch temps (volatile)
r20   global data cursor index (deliberately *not* saved/restored,
      so data-dependent behaviour does not repeat per call)
r21-r23  diamond / filler temps (volatile)
r29   stack pointer; r31 link register
====  =============================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.isa import Instruction, Opcode, RA, SP
from repro.program import (
    BasicBlock,
    Call,
    ControlFlowGraph,
    DataSegment,
    Procedure,
    ProgramImage,
    Reloc,
    TermKind,
    Terminator,
    layout,
)
from repro.workloads.data import cursor_mask, fill_random_array
from repro.workloads.profiles import WorkloadProfile

_DATA_BASE_HI = 0x40      # lui value for the data array base
_SCRATCH_BASE_HI = 0x41   # lui value for the scratch store area
_STACK_HI = 0x80          # lui value for the initial stack pointer

_LOCAL_POOL = tuple(range(1, 13))
_CURSOR = 20
_T0, _T1, _T2 = 21, 22, 23      # volatile temps
_S0, _S1, _S2 = 16, 17, 18      # switch temps
_DATA_BASE_REG = 13
_SCRATCH_BASE_REG = 14

_STRONG_MASK = 63   # biased diamond: taken ~63/64 of the time
_WEAK_MASK = 1      # weak diamond: ~50/50


class WorkloadVerificationError(RuntimeError):
    """A generated workload failed the post-generation verifier gate."""

    def __init__(self, name: str, findings) -> None:
        self.findings = list(findings)
        details = "\n".join(f"  {f}" for f in self.findings)
        super().__init__(
            f"generated workload {name!r} failed verification "
            f"({len(self.findings)} errors):\n{details}")


@dataclass
class GeneratedWorkload:
    """A linked synthetic benchmark plus its provenance.

    ``branch_intents`` maps the byte address of each intentful
    conditional branch to the generator's intent kind
    (``diamond_strong`` / ``diamond_weak`` / ``loop_back`` / ``guard``)
    so the verifier can cross-check emitted code against what the
    generator meant to emit.
    """

    profile: WorkloadProfile
    image: ProgramImage
    procedures: list[Procedure]
    branch_intents: dict[int, str] = field(default_factory=dict)


def generate(profile: WorkloadProfile,
             verify: bool = True) -> GeneratedWorkload:
    """Generate, link, and return the workload described by ``profile``.

    With ``verify`` (the default), the linked image is run through the
    static verifier's ERROR-capable rules and any ERROR-severity finding
    aborts generation with :class:`WorkloadVerificationError` — a
    generator bug must never silently become a simulation result.
    """
    rng = random.Random(profile.seed)
    data = DataSegment()
    fill_random_array(data, profile.data_words, profile.seed)

    names = [f"p{i}" for i in range(profile.procedures)]
    procedures = []
    intent_labels: list[tuple[str, str]] = []
    for i, name in enumerate(names):
        callees = names[i + 1:i + 1 + 8]
        emitter = _ProcedureEmitter(name, profile, rng, data, callees)
        procedures.append(emitter.build())
        intent_labels.extend(emitter.branch_intents)

    top_level = names[:min(profile.fanout, len(names))]
    procedures.insert(0, _build_main(top_level, profile))

    image = layout(procedures, entry="main", data=data)

    # The intentful branch is its block's terminator: it lands right
    # after the block body (one instruction per body item — a Call
    # lowers to a single JAL).
    body_len = {block.label: len(block.body)
                for proc in procedures for block in proc.cfg.blocks}
    branch_intents = {
        image.labels[label] + 4 * body_len[label]: kind
        for label, kind in intent_labels}

    if verify:
        from repro.static.verifier import verify_image
        report = verify_image(image, intents=branch_intents,
                              errors_only=True)
        if report.errors:
            raise WorkloadVerificationError(profile.name, report.errors)

    return GeneratedWorkload(profile=profile, image=image,
                             procedures=procedures,
                             branch_intents=branch_intents)


def _build_main(top_level: list[str], profile: WorkloadProfile) -> Procedure:
    """The driver: initialise globals, then call the top-level
    procedures forever (runs are bounded by instruction budget)."""
    cfg = ControlFlowGraph()
    setup = [
        Instruction(Opcode.LUI, rd=SP, imm=_STACK_HI),
        Instruction(Opcode.ADDI, rd=_CURSOR, rs1=0, imm=0),
        Instruction(Opcode.ADDI, rd=15, rs1=0, imm=0),
    ]
    cfg.add(BasicBlock(
        label="main", body=setup,
        terminator=Terminator(TermKind.FALLTHROUGH, targets=("main:loop",))))
    body: list = [Call(name) for name in top_level]
    body.append(Instruction(Opcode.ADDI, rd=15, rs1=15, imm=1))
    cfg.add(BasicBlock(
        label="main:loop", body=body,
        terminator=Terminator(TermKind.JUMP, targets=("main:loop",))))
    return Procedure(name="main", cfg=cfg)


class _ProcedureEmitter:
    """Emits one procedure's CFG from the profile's construct mix."""

    def __init__(self, name: str, profile: WorkloadProfile,
                 rng: random.Random, data: DataSegment,
                 callees: list[str]) -> None:
        self.name = name
        self.profile = profile
        self.rng = rng
        self.data = data
        self.callees = callees
        self._label_counter = 0
        self._blocks: list[BasicBlock] = []
        self._body: list = []
        self._label = self._new_label()
        self._pool = list(_LOCAL_POOL)
        self._used_locals: list[int] = []
        self._live: list[int] = []
        self._makes_calls = False
        self._uses_stores = False
        self._cursor_mask = cursor_mask(profile.data_words)
        #: (block label, intent kind) for every intentful branch; the
        #: branch is that block's terminator.
        self.branch_intents: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Label / block plumbing
    # ------------------------------------------------------------------
    def _new_label(self) -> str:
        self._label_counter += 1
        return f"{self.name}:b{self._label_counter}"

    def _close(self, terminator: Terminator) -> None:
        self._blocks.append(BasicBlock(label=self._label, body=self._body,
                                       terminator=terminator))
        self._body = []

    def _open(self, label: str) -> None:
        self._label = label

    def _fall_to(self, label: str) -> None:
        self._close(Terminator(TermKind.FALLTHROUGH, targets=(label,)))
        self._open(label)

    # ------------------------------------------------------------------
    # Register allocation
    # ------------------------------------------------------------------
    def _alloc(self) -> int | None:
        if not self._pool:
            return None
        reg = self._pool.pop(0)
        self._used_locals.append(reg)
        return reg

    # ------------------------------------------------------------------
    # Construct emitters
    # ------------------------------------------------------------------
    def _emit_filler(self, count: int | None = None) -> None:
        """Straight-line compute: ALU mix with occasional memory ops."""
        profile = self.profile
        rng = self.rng
        if count is None:
            count = rng.randint(profile.block_min, profile.block_max)
        if not self._live:
            reg = self._alloc() or _T0
            self._body.append(Instruction(Opcode.ADDI, rd=reg, rs1=0,
                                          imm=rng.randint(1, 100)))
            self._live.append(reg)
            count -= 1
        for _ in range(max(0, count)):
            roll = rng.random()
            dst = rng.choice(self._live + [_T0])
            src = rng.choice(self._live)
            if roll < profile.load_fraction:
                offset = 4 * rng.randrange(profile.data_words)
                self._body.append(Instruction(
                    Opcode.LW, rd=dst, rs1=_DATA_BASE_REG, imm=offset))
            elif roll < profile.load_fraction + profile.store_fraction:
                self._uses_stores = True
                offset = 4 * rng.randrange(256)
                self._body.append(Instruction(
                    Opcode.SW, rs1=_SCRATCH_BASE_REG, rs2=src, imm=offset))
            elif roll < (profile.load_fraction + profile.store_fraction
                         + profile.mul_fraction):
                src2 = rng.choice(self._live)
                self._body.append(Instruction(
                    Opcode.MUL, rd=dst, rs1=src, rs2=src2))
            else:
                op = rng.choice((Opcode.ADD, Opcode.SUB, Opcode.XOR,
                                 Opcode.ADDI, Opcode.SLLI, Opcode.ORI))
                if op in (Opcode.ADDI, Opcode.ORI):
                    self._body.append(Instruction(
                        op, rd=dst, rs1=src, imm=rng.randint(1, 63)))
                elif op is Opcode.SLLI:
                    self._body.append(Instruction(
                        op, rd=dst, rs1=src, imm=rng.randint(1, 4)))
                else:
                    src2 = rng.choice(self._live)
                    self._body.append(Instruction(op, rd=dst, rs1=src,
                                                  rs2=src2))

    def _emit_cursor_advance(self, result_reg: int) -> None:
        """cursor++, wrap, load data[cursor] into ``result_reg``."""
        self._body.extend([
            Instruction(Opcode.ADDI, rd=_CURSOR, rs1=_CURSOR, imm=1),
            Instruction(Opcode.ANDI, rd=_CURSOR, rs1=_CURSOR,
                        imm=self._cursor_mask),
            Instruction(Opcode.SLLI, rd=_T1, rs1=_CURSOR, imm=2),
            Instruction(Opcode.ADD, rd=_T1, rs1=_DATA_BASE_REG, rs2=_T1),
            Instruction(Opcode.LW, rd=result_reg, rs1=_T1, imm=0),
        ])

    def _emit_diamond(self) -> None:
        """Data-dependent if/else on a masked random word."""
        rng = self.rng
        strong = rng.random() < self.profile.biased_fraction
        mask = _STRONG_MASK if strong else _WEAK_MASK
        then_label = self._new_label()
        else_label = self._new_label()
        join_label = self._new_label()
        self._emit_cursor_advance(_T0)
        self._body.append(Instruction(Opcode.ANDI, rd=_T0, rs1=_T0,
                                      imm=mask))
        # bne: taken whenever any masked bit is set (prob 1 - 2^-bits).
        self.branch_intents.append(
            (self._label, "diamond_strong" if strong else "diamond_weak"))
        self._close(Terminator(
            TermKind.BRANCH, targets=(then_label, else_label),
            branch_op=Opcode.BNE, rs1=_T0, rs2=0))
        self._open(else_label)
        self._emit_filler(rng.randint(2, 4))
        self._close(Terminator(TermKind.JUMP, targets=(join_label,)))
        self._open(then_label)
        self._emit_filler(rng.randint(2, 4))
        self._fall_to(join_label)

    def _emit_loop(self, depth: int) -> None:
        counter = self._alloc()
        limit = self._alloc()
        if counter is None or limit is None:
            self._emit_filler()
            return
        rng = self.rng
        head_label = self._new_label()
        exit_label = self._new_label()
        self._body.append(Instruction(Opcode.ADDI, rd=counter, rs1=0, imm=0))
        if rng.random() < 0.25:
            # Data-dependent trip count: a weakly-predictable loop bound.
            self._emit_cursor_advance(limit)
            trip_mask = 7
            self._body.append(Instruction(Opcode.ANDI, rd=limit, rs1=limit,
                                          imm=trip_mask))
            self._body.append(Instruction(Opcode.ORI, rd=limit, rs1=limit,
                                          imm=1))
        else:
            trip = rng.randint(self.profile.loop_trip_min,
                               self.profile.loop_trip_max)
            self._body.append(Instruction(Opcode.ADDI, rd=limit, rs1=0,
                                          imm=trip))
        self._fall_to(head_label)
        if depth > 0 and rng.random() < self.profile.nested_loop_prob:
            self._emit_construct(depth - 1)
        else:
            self._emit_filler()
        self._body.append(Instruction(Opcode.ADDI, rd=counter, rs1=counter,
                                      imm=1))
        self.branch_intents.append((self._label, "loop_back"))
        self._close(Terminator(
            TermKind.BRANCH, targets=(head_label, exit_label),
            branch_op=Opcode.BLT, rs1=counter, rs2=limit))
        self._open(exit_label)

    def _emit_switch(self) -> None:
        """Jump-table dispatch on masked random data (indirect jump)."""
        rng = self.rng
        arms = self.profile.switch_arms
        arm_labels = [self._new_label() for _ in range(arms)]
        join_label = self._new_label()
        table_addr = self.data.extend(
            [Reloc(label) for label in arm_labels])
        self._emit_cursor_advance(_S0)
        self._body.extend([
            Instruction(Opcode.ANDI, rd=_S0, rs1=_S0, imm=arms - 1),
            Instruction(Opcode.SLLI, rd=_S0, rs1=_S0, imm=2),
            Instruction(Opcode.LUI, rd=_S1, imm=table_addr >> 16),
            Instruction(Opcode.ORI, rd=_S1, rs1=_S1,
                        imm=table_addr & 0xFFFF),
            Instruction(Opcode.ADD, rd=_S1, rs1=_S1, rs2=_S0),
            Instruction(Opcode.LW, rd=_S2, rs1=_S1, imm=0),
        ])
        self._close(Terminator(TermKind.INDIRECT_JUMP,
                               targets=tuple(arm_labels), reg=_S2))
        for i, label in enumerate(arm_labels):
            self._open(label)
            self._emit_filler(rng.randint(2, 4))
            if i == arms - 1:
                self._fall_to(join_label)
            else:
                self._close(Terminator(TermKind.JUMP, targets=(join_label,)))
        # join_label already open via the last arm's fallthrough.

    def _emit_call(self) -> None:
        if not self.callees:
            self._emit_filler()
            return
        self._makes_calls = True
        if (len(self.callees) >= 2
                and self.rng.random() < self.profile.fptr_call_prob):
            self._emit_fptr_call()
            return
        callee = self.rng.choice(self.callees)
        if self.rng.random() < self.profile.call_guard_prob:
            self._emit_guarded_call(callee)
        else:
            self._body.append(Call(callee))

    def _emit_fptr_call(self) -> None:
        """Function-pointer dispatch: ``JALR`` through a data table of
        procedure addresses, indexed by pseudo-random data (the
        interpreter / funcall idiom).  Statically opaque to the
        preconstruction walker."""
        count = min(len(self.callees), 4)
        targets = self.rng.sample(self.callees, count)
        # Table size must be a power of two for the masking index.
        while count & (count - 1):
            targets.append(self.rng.choice(targets))
            count += 1
        table_addr = self.data.extend([Reloc(name) for name in targets])
        self._emit_cursor_advance(_S0)
        self._body.extend([
            Instruction(Opcode.ANDI, rd=_S0, rs1=_S0, imm=count - 1),
            Instruction(Opcode.SLLI, rd=_S0, rs1=_S0, imm=2),
            Instruction(Opcode.LUI, rd=_S1, imm=table_addr >> 16),
            Instruction(Opcode.ORI, rd=_S1, rs1=_S1,
                        imm=table_addr & 0xFFFF),
            Instruction(Opcode.ADD, rd=_S1, rs1=_S1, rs2=_S0),
            Instruction(Opcode.LW, rd=_S2, rs1=_S1, imm=0),
            Instruction(Opcode.JALR, rd=RA, rs1=_S2),
        ])

    def _emit_guarded_call(self, callee: str) -> None:
        """A call behind a rotating *phase* guard.

        ``if ((iteration >> run_shift) & (phases-1)) == site_phase:
        call callee`` — the subtree is entered for runs of consecutive
        driver iterations and then lies dormant, producing long revisit
        distances.  Within any phase the guard branch is strongly
        biased, so the preconstruction bias heuristic follows the
        currently-dominant direction."""
        phases = self.profile.guard_phases
        site_phase = self.rng.randrange(phases)
        call_label = self._new_label()
        join_label = self._new_label()
        self._body.extend([
            Instruction(Opcode.SRLI, rd=_T0, rs1=15,
                        imm=self.profile.guard_run_shift),
            Instruction(Opcode.ANDI, rd=_T0, rs1=_T0, imm=phases - 1),
            Instruction(Opcode.XORI, rd=_T0, rs1=_T0, imm=site_phase),
        ])
        # Taken (phase mismatch) jumps over the call.
        self.branch_intents.append((self._label, "guard"))
        self._close(Terminator(
            TermKind.BRANCH, targets=(join_label, call_label),
            branch_op=Opcode.BNE, rs1=_T0, rs2=0))
        self._open(call_label)
        self._body.append(Call(callee))
        self._fall_to(join_label)

    def _emit_construct(self, depth: int) -> None:
        weights = self.profile.construct_weights
        kinds = list(weights)
        chosen = self.rng.choices(kinds, weights=[weights[k] for k in kinds])[0]
        if chosen == "loop":
            self._emit_loop(depth)
        elif chosen == "diamond":
            self._emit_diamond()
        elif chosen == "switch":
            self._emit_switch()
        elif chosen == "call":
            self._emit_call()
        else:
            self._emit_filler()

    # ------------------------------------------------------------------
    def build(self) -> Procedure:
        count = self.rng.randint(self.profile.constructs_min,
                                 self.profile.constructs_max)
        for _ in range(count):
            self._emit_construct(depth=1)
        ret_label = f"{self.name}:ret"
        self._fall_to(ret_label)
        saved = list(self._used_locals)
        frame = 4 * (len(saved) + 1)  # +1 slot for ra
        # Epilogue: restore, release frame, return.
        if self._makes_calls:
            self._body.append(Instruction(Opcode.LW, rd=RA, rs1=SP, imm=0))
        for i, reg in enumerate(saved):
            self._body.append(Instruction(Opcode.LW, rd=reg, rs1=SP,
                                          imm=4 * (i + 1)))
        self._body.append(Instruction(Opcode.ADDI, rd=SP, rs1=SP, imm=frame))
        self._close(Terminator(TermKind.RETURN))

        # Prologue block carries the procedure's entry label.
        prologue: list = [
            Instruction(Opcode.LUI, rd=_DATA_BASE_REG, imm=_DATA_BASE_HI),
            Instruction(Opcode.ADDI, rd=SP, rs1=SP, imm=-frame),
        ]
        if self._uses_stores:
            prologue.insert(1, Instruction(Opcode.LUI, rd=_SCRATCH_BASE_REG,
                                           imm=_SCRATCH_BASE_HI))
        if self._makes_calls:
            prologue.append(Instruction(Opcode.SW, rs1=SP, rs2=RA, imm=0))
        for i, reg in enumerate(saved):
            prologue.append(Instruction(Opcode.SW, rs1=SP, rs2=reg,
                                        imm=4 * (i + 1)))
        first_body_label = self._blocks[0].label
        entry = BasicBlock(
            label=self.name, body=prologue,
            terminator=Terminator(TermKind.FALLTHROUGH,
                                  targets=(first_body_label,)))
        cfg = ControlFlowGraph()
        cfg.add(entry)
        for block in self._blocks:
            cfg.add(block)
        return Procedure(name=self.name, cfg=cfg)
