"""Whole-program CFG recovery from a linked :class:`ProgramImage`.

The preconstruction engine discovers program structure *dynamically*
(calls and taken backward branches in the dispatch stream, §3.1-§3.2 of
the paper).  This module recovers the same structure *statically*:
procedures are partitioned by their entry labels, basic blocks are
discovered from control-transfer targets (no reliance on block labels),
and register-indirect jumps are resolved through the image's data
relocations (switch tables resolve to in-procedure targets, function-
pointer tables to procedure entries).

The recovered CFG is the substrate for dominator/loop analysis
(:mod:`repro.static.dominators`), the program verifier
(:mod:`repro.static.verifier`), and static region seeding
(:mod:`repro.static.seeding`).

Modelling conventions (matching the generator's code shapes and the
constructor's walk in :mod:`repro.core.preconstructor`):

* Direct and indirect *calls* (``JAL``/``JALR``) do not terminate basic
  blocks; their interprocedural edge lives in the call graph and the
  block continues at the return point.
* ``JR`` that is not a return is a *switch*: its successors are the
  relocated data words that land inside the enclosing procedure.
* ``JR ra`` (return) and ``HALT`` end a block with no successors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from repro.isa import INSTRUCTION_BYTES, Instruction, Kind, Opcode
from repro.program.image import ProgramImage

#: One decoded instruction of a block: ``(pc, instruction)``.
Row = tuple[int, Instruction]

#: Name of the synthetic procedure covering code before the first label
#: (the startup stub emitted by the layout pass).
START_PROC = "_start"


@dataclass(frozen=True)
class ProcedureRange:
    """One procedure's address span ``[start, end)``."""

    name: str
    start: int
    end: int

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end

    @property
    def instructions(self) -> int:
        return (self.end - self.start) // INSTRUCTION_BYTES


@dataclass(frozen=True)
class BlockInfo:
    """One recovered basic block.

    ``successors`` are intra-procedure control-flow edges (byte
    addresses); a successor outside the owning procedure's range is a
    discipline violation the verifier flags.  ``terminator`` is one of
    ``"fallthrough"``, ``"branch"``, ``"jump"``, ``"return"``,
    ``"switch"``, ``"halt"`` or ``"end"`` (ran off the end of the
    procedure or image with no control instruction).
    """

    start: int
    end: int                       # exclusive byte address
    successors: tuple[int, ...]
    terminator: str
    procedure: str

    @property
    def instructions(self) -> int:
        return (self.end - self.start) // INSTRUCTION_BYTES

    def addresses(self) -> Iterator[int]:
        return iter(range(self.start, self.end, INSTRUCTION_BYTES))


class RecoveredCFG:
    """Basic blocks, procedure ranges, and indirect-target resolution."""

    def __init__(self, image: ProgramImage) -> None:
        self.image = image
        self.procedures: list[ProcedureRange] = _procedure_ranges(image)
        self._proc_by_name = {p.name: p for p in self.procedures}
        #: Relocated code addresses (jump/function-pointer table entries),
        #: keyed by data address.  Uses true relocation provenance when
        #: the image records it; otherwise falls back to scanning data
        #: values (conservative, as :func:`reachable_addresses` does).
        self.reloc_targets: dict[int, int] = _reloc_targets(image)
        self.blocks: dict[int, BlockInfo] = {}
        self._block_of: dict[int, int] = {}   # any pc -> block start
        for proc in self.procedures:
            self._discover_blocks(proc)
        self._predecessors: dict[int, tuple[int, ...]] = {}
        self._reachable: dict[ProcedureRange, frozenset[int]] = {}

    @cached_property
    def rows(self) -> dict[int, tuple[Row, ...]]:
        """Each block's instructions in address order, by block start.

        Decoded once, on first use, so dataflow transfers never fetch;
        addresses the image cannot fetch are left out.
        """
        fetch = self.image.try_fetch
        rows: dict[int, tuple[Row, ...]] = {}
        for start, block in self.blocks.items():
            decoded: list[Row] = []
            for pc in block.addresses():
                inst = fetch(pc)
                if inst is not None:
                    decoded.append((pc, inst))
            rows[start] = tuple(decoded)
        return rows

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def procedure_of(self, pc: int) -> Optional[ProcedureRange]:
        for proc in self.procedures:
            if pc in proc:
                return proc
        return None

    def procedure(self, name: str) -> ProcedureRange:
        return self._proc_by_name[name]

    def block_at(self, pc: int) -> Optional[BlockInfo]:
        """The block containing ``pc`` (not necessarily its start)."""
        start = self._block_of.get(pc)
        return self.blocks[start] if start is not None else None

    def proc_blocks(self, proc: ProcedureRange) -> list[BlockInfo]:
        """Blocks of ``proc`` in address order."""
        return [b for b in self.blocks.values()
                if proc.start <= b.start < proc.end]

    def predecessors(self, block_start: int) -> tuple[int, ...]:
        if not self._predecessors:
            preds: dict[int, list[int]] = {s: [] for s in self.blocks}
            for block in self.blocks.values():
                for succ in block.successors:
                    if succ in preds:
                        preds[succ].append(block.start)
            self._predecessors = {s: tuple(p) for s, p in preds.items()}
        return self._predecessors.get(block_start, ())

    # ------------------------------------------------------------------
    # Per-procedure reachability (intra-procedure edges only).
    # ------------------------------------------------------------------
    def reachable_blocks(self, proc: ProcedureRange) -> frozenset[int]:
        """Block starts reachable from ``proc``'s entry block (memoised)."""
        reachable = self._reachable.get(proc)
        if reachable is None:
            reachable = self._reachable[proc] = self._walk_reachable(proc)
        return reachable

    def _walk_reachable(self, proc: ProcedureRange) -> frozenset[int]:
        if proc.start not in self.blocks:
            return frozenset()
        seen: set[int] = set()
        work = [proc.start]
        while work:
            start = work.pop()
            if start in seen or start not in self.blocks:
                continue
            seen.add(start)
            for succ in self.blocks[start].successors:
                succ_block = self._block_of.get(succ)
                if succ_block is not None and succ_block in proc:
                    work.append(succ_block)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Switch resolution: in-procedure relocated targets.
    # ------------------------------------------------------------------
    def switch_targets(self, proc: ProcedureRange) -> tuple[int, ...]:
        """Relocated code addresses landing inside ``proc`` (sorted)."""
        return tuple(sorted({t for t in self.reloc_targets.values()
                             if t in proc}))

    def entry_targets(self) -> tuple[int, ...]:
        """Relocated procedure entries (function-pointer candidates)."""
        entries = {p.start for p in self.procedures}
        return tuple(sorted({t for t in self.reloc_targets.values()
                             if t in entries}))

    # ------------------------------------------------------------------
    # Block discovery
    # ------------------------------------------------------------------
    def _discover_blocks(self, proc: ProcedureRange) -> None:
        image = self.image
        leaders = {proc.start}
        switch_targets = {t for t in self.reloc_targets.values()
                          if t in proc}
        leaders |= switch_targets
        ends: set[int] = set()   # addresses of block-ending instructions
        for pc in range(proc.start, proc.end, INSTRUCTION_BYTES):
            inst = image.try_fetch(pc)
            if inst is None:
                continue
            kind = inst.kind
            if kind is Kind.BRANCH:
                target = pc + inst.imm
                if target in proc:
                    leaders.add(target)
                leaders.add(pc + INSTRUCTION_BYTES)
                ends.add(pc)
            elif kind is Kind.JUMP:
                if inst.imm in proc:
                    leaders.add(inst.imm)
                leaders.add(pc + INSTRUCTION_BYTES)
                ends.add(pc)
            elif kind in (Kind.JUMP_INDIRECT, Kind.HALT):
                leaders.add(pc + INSTRUCTION_BYTES)
                ends.add(pc)
            # CALL / CALL_INDIRECT fall through: the block continues at
            # the return point, mirroring the constructor's walk.
        leaders = {pc for pc in leaders if pc in proc}

        for start in sorted(leaders):
            end = start
            while end < proc.end:
                if end in ends:
                    end += INSTRUCTION_BYTES
                    break
                end += INSTRUCTION_BYTES
                if end in leaders:
                    break
            block = self._make_block(proc, start, end, switch_targets)
            self.blocks[start] = block
            for pc in range(start, end, INSTRUCTION_BYTES):
                self._block_of[pc] = start

    def _make_block(self, proc: ProcedureRange, start: int, end: int,
                    switch_targets: set[int]) -> BlockInfo:
        last_pc = end - INSTRUCTION_BYTES
        inst = self.image.try_fetch(last_pc)
        fall = end
        if inst is None:
            return BlockInfo(start, end, (), "end", proc.name)
        kind = inst.kind
        if kind is Kind.BRANCH:
            return BlockInfo(start, end, (last_pc + inst.imm, fall),
                             "branch", proc.name)
        if kind is Kind.JUMP:
            return BlockInfo(start, end, (inst.imm,), "jump", proc.name)
        if kind is Kind.JUMP_INDIRECT:
            if inst.is_return:
                return BlockInfo(start, end, (), "return", proc.name)
            resolved = resolve_indirect_table(self.image, last_pc,
                                              self.reloc_targets)
            if resolved is not None:
                targets = {t for t in resolved if t in proc}
            else:
                targets = switch_targets
            return BlockInfo(start, end, tuple(sorted(targets)),
                             "switch", proc.name)
        if kind is Kind.HALT:
            return BlockInfo(start, end, (), "halt", proc.name)
        # Block ended because the next address is a leader (or the
        # procedure/image ran out).
        if fall < proc.end:
            return BlockInfo(start, end, (fall,), "fallthrough", proc.name)
        if self.image.try_fetch(fall) is not None:
            # Sequential flow crosses the procedure boundary — recorded
            # so the verifier can flag it (SD001).
            return BlockInfo(start, end, (fall,), "fallthrough", proc.name)
        return BlockInfo(start, end, (), "end", proc.name)


#: Backward-scan window for table-base resolution (instructions).
_RESOLVE_WINDOW = 16


def resolve_indirect_table(image: ProgramImage, pc: int,
                           reloc_targets: dict[int, int],
                           ) -> Optional[tuple[int, ...]]:
    """Resolve the table feeding the indirect jump/call at ``pc``.

    Table dispatch follows the standard idiom: mask an index (``ANDI``),
    scale it (``SLLI``), materialise the table base (``LUI``+``ORI``),
    index (``ADD``), load (``LW``), transfer (``JR``/``JALR``).  This
    walks backward from ``pc`` propagating those constants; when the
    pattern matches, the exact table entries (and nothing else) are the
    successor set.  Returns ``None`` when the producer chain cannot be
    recovered — callers then fall back to the conservative union of all
    relocated targets.
    """
    inst = image.try_fetch(pc)
    if inst is None or not inst.is_indirect:
        return None
    target_reg = inst.rs1
    base_reg: Optional[int] = None
    index_reg: Optional[int] = None
    count: Optional[int] = None
    hi: Optional[int] = None
    lo = 0
    offset = 0
    scan = pc
    for _ in range(_RESOLVE_WINDOW):
        scan -= INSTRUCTION_BYTES
        prev = image.try_fetch(scan)
        if prev is None:
            break
        op = prev.op
        if base_reg is None:
            # Looking for the load that produced the transfer target.
            if op is Opcode.LW and prev.rd == target_reg:
                base_reg = prev.rs1
                offset = prev.imm
            elif prev.destination_register() == target_reg:
                return None     # target produced by something else
            continue
        if hi is None:
            # Looking for the base address: ADD folds in the scaled
            # index, ORI the low half, LUI the high half (terminal).
            if (op is Opcode.ADD and prev.rd == base_reg
                    and base_reg in (prev.rs1, prev.rs2)):
                index_reg = (prev.rs2 if prev.rs1 == base_reg
                             else prev.rs1)
            elif (op is Opcode.ORI and prev.rd == base_reg
                    and prev.rs1 == base_reg):
                lo = prev.imm
            elif op is Opcode.LUI and prev.rd == base_reg:
                hi = prev.imm
            elif prev.destination_register() == base_reg:
                return None     # base produced by something else
            continue
        # Base fully known; the index mask bounds the table size.
        if (op is Opcode.ANDI and index_reg is not None
                and prev.rd == index_reg and prev.rs1 == index_reg):
            count = prev.imm + 1
            break
    if hi is None:
        return None
    table = ((hi << 16) | (lo & 0xFFFF)) + offset
    targets: list[int] = []
    if count is not None:
        for i in range(count):
            addr = table + i * INSTRUCTION_BYTES
            if addr not in reloc_targets:
                return None     # table shorter than the index range
            targets.append(reloc_targets[addr])
    else:
        # Unknown bound: take the contiguous relocated run.
        addr = table
        while addr in reloc_targets:
            targets.append(reloc_targets[addr])
            addr += INSTRUCTION_BYTES
        if not targets:
            return None
    return tuple(targets)


def _procedure_ranges(image: ProgramImage) -> list[ProcedureRange]:
    """Partition the code segment into procedures by entry labels.

    Labels containing ``":"`` are interior block labels; the rest are
    procedure entries.  Code before the first entry (the startup stub)
    becomes the synthetic :data:`START_PROC` procedure.
    """
    entries = sorted((addr, name) for name, addr in image.labels.items()
                     if ":" not in name and addr in image)
    ranges: list[ProcedureRange] = []
    code_end = image.code_end
    if not entries:
        if image.code_size:
            ranges.append(ProcedureRange(START_PROC, image.code_base,
                                         code_end))
        return ranges
    first_addr = entries[0][0]
    if first_addr > image.code_base:
        ranges.append(ProcedureRange(START_PROC, image.code_base,
                                     first_addr))
    for i, (addr, name) in enumerate(entries):
        end = entries[i + 1][0] if i + 1 < len(entries) else code_end
        ranges.append(ProcedureRange(name, addr, end))
    return ranges


def _reloc_targets(image: ProgramImage) -> dict[int, int]:
    """Data words holding code addresses, keyed by data address.

    Prefers the image's recorded relocations (exact provenance from the
    layout pass); falls back to scanning data values for addresses that
    land in the code segment when no relocations were recorded (images
    assembled by hand in tests).
    """
    relocs = getattr(image, "relocs", None)
    if relocs:
        return dict(relocs)
    return {addr: value for addr, value in image.data.items()
            if value in image}


def recover_cfg(image: ProgramImage) -> RecoveredCFG:
    """Recover the whole-program CFG of ``image``."""
    return RecoveredCFG(image)
