"""Whole-program call graph with indirect-target resolution.

Direct edges come from ``JAL`` sites; indirect call sites (``JALR``)
are resolved through their function-pointer tables by backward constant
propagation of the table base (:func:`resolve_indirect_table`).  When
the producer chain is opaque, the site falls back to the conservative
candidate set: every relocated data word holding a procedure entry.

On top of the graph:

* procedure-level *liveness* (garbage-collection view): a procedure is
  live when reachable from the entry procedure via direct calls, or
  when its entry sits in a function-pointer table and any live
  procedure makes indirect calls;
* the static *call-depth bound* — the longest call chain, which is the
  return-address-stack depth the program can demand.  Recursion makes
  the bound infinite (``None``); the verifier turns that into a
  stack-discipline finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa import Kind
from repro.program.image import ProgramImage
from repro.static.recovery import RecoveredCFG, resolve_indirect_table


@dataclass(frozen=True)
class CallSite:
    """One call instruction: where it is, what it can reach."""

    pc: int
    caller: str
    targets: tuple[str, ...]     # callee names (several for indirect)
    indirect: bool


class StaticCallGraph:
    """Call edges over procedure names, plus liveness and depth."""

    def __init__(self, cfg: RecoveredCFG) -> None:
        self.cfg = cfg
        image = cfg.image
        entries = {p.start: p.name for p in cfg.procedures}
        fptr_candidates = tuple(
            entries[t] for t in cfg.entry_targets())

        self.sites: list[CallSite] = []
        self.edges: dict[str, set[str]] = {p.name: set()
                                           for p in cfg.procedures}
        self._makes_indirect: set[str] = set()
        for proc in cfg.procedures:
            for block_start in sorted(cfg.reachable_blocks(proc)):
                for pc, inst in cfg.rows[block_start]:
                    if inst.kind is Kind.CALL:
                        callee = entries.get(inst.imm)
                        targets = (callee,) if callee else ()
                        self.sites.append(CallSite(
                            pc=pc, caller=proc.name,
                            targets=tuple(t for t in targets if t),
                            indirect=False))
                        if callee:
                            self.edges[proc.name].add(callee)
                    elif inst.kind is Kind.CALL_INDIRECT:
                        resolved = resolve_indirect_table(
                            image, pc, cfg.reloc_targets)
                        if resolved is not None:
                            targets = tuple(sorted(
                                {entries[t] for t in resolved
                                 if t in entries}))
                        else:
                            targets = fptr_candidates
                        self.sites.append(CallSite(
                            pc=pc, caller=proc.name,
                            targets=targets, indirect=True))
                        self._makes_indirect.add(proc.name)
                        self.edges[proc.name].update(targets)

        self.entry_procedure = self._entry_procedure_name()
        self.live: set[str] = self._liveness()
        self.max_call_depth: Optional[int] = self._max_depth()

    # ------------------------------------------------------------------
    def _entry_procedure_name(self) -> Optional[str]:
        proc = self.cfg.procedure_of(self.cfg.image.entry)
        return proc.name if proc is not None else None

    def _liveness(self) -> set[str]:
        if self.entry_procedure is None:
            return set()
        live: set[str] = set()
        work = [self.entry_procedure]
        while work:
            name = work.pop()
            if name in live:
                continue
            live.add(name)
            work.extend(self.edges.get(name, ()))
        return live

    def _max_depth(self) -> Optional[int]:
        """Longest call chain from the entry procedure; ``None`` when
        the live graph is cyclic (recursion -> unbounded RAS demand)."""
        if self.entry_procedure is None:
            return 0
        depth: dict[str, Optional[int]] = {}
        IN_PROGRESS = -1

        def visit(name: str) -> Optional[int]:
            state = depth.get(name)
            if state == IN_PROGRESS:
                return None          # cycle
            if state is not None:
                return state
            depth[name] = IN_PROGRESS
            best = 0
            for callee in sorted(self.edges.get(name, ())):
                sub = visit(callee)
                if sub is None:
                    depth[name] = IN_PROGRESS
                    return None
                best = max(best, 1 + sub)
            depth[name] = best
            return best

        return visit(self.entry_procedure)

    # ------------------------------------------------------------------
    def callers_of(self, name: str) -> set[str]:
        return {caller for caller, callees in self.edges.items()
                if name in callees}

    def call_target_names(self) -> set[str]:
        """Every procedure some call site can reach."""
        out: set[str] = set()
        for site in self.sites:
            out.update(site.targets)
        return out

    @property
    def dead_procedures(self) -> tuple[str, ...]:
        """Never-referenced procedures (linker garbage), sorted."""
        return tuple(sorted(p.name for p in self.cfg.procedures
                            if p.name not in self.live))


def recover_call_graph(image: ProgramImage,
                       cfg: RecoveredCFG | None = None) -> StaticCallGraph:
    """Build the call graph (recovering the CFG first if needed)."""
    return StaticCallGraph(cfg or RecoveredCFG(image))
