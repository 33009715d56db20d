"""Static preconstruction-coverage prediction (§3.2 made whole-program).

The dynamic engine delimits traces with :class:`TraceBuilder`'s
stopping rules while the processor executes.  Everything those rules
consult — instruction kinds, backward-branch positions, lengths — is
static, so the complete population of traces the fill unit *can* build
is computable ahead of time by walking every static path with the same
rules.  This module performs that walk and emits:

* the predicted **trace start-point set** — a superset of every pc any
  dynamic trace can start at;
* the predicted **instruction coverage** — a superset of every pc the
  program can commit;
* a **trace working-set estimate** — the number of distinct delimited
  trace paths discovered (a lower bound: the state merging that keeps
  the walk polynomial can merge distinct dynamic identities);
* **per-region predictions** for each static region start point
  (:func:`repro.static.seeding.compute_static_seeds`): the region's
  trace count and reachable footprint, statically delimited exactly as
  the paper's constructor would walk it (§3.2 — a region extends
  through length cuts and direct calls, and is bounded by returns and
  indirect transfers).

Soundness argument for the continuation rebase: when the length rule
truncates at ``cut < n``, the builder keeps ``entries[cut:]`` buffered.
Those entries are ``(pc, image[pc], ...)`` tuples — pure functions of
their pcs — so the future behaviour of the buffer is identical to a
fresh builder started at ``pcs[cut]`` and fed the same path.  The walk
therefore records ``pcs[cut]`` as a new start point instead of carrying
buffers, without losing any reachable delimitation.

The containment guarantee (every dynamic trace start and committed pc
is predicted) is differentially validated by the static-vs-dynamic
coverage oracle in :mod:`repro.check.oracles`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.isa import INSTRUCTION_BYTES, Instruction, Kind
from repro.program.analysis import instruction_successors, \
    reachable_addresses
from repro.program.image import ProgramImage
from repro.static.analyses import StaticFacts, resolve_table_via_dataflow
from repro.static.recovery import ProcedureRange, resolve_indirect_table
from repro.static.seeding import StaticSeed, compute_static_seeds
from repro.trace.selection import SelectionConfig, aligned_cut
from repro.trace.trace import MAX_TRACE_LENGTH

#: Exploration bounds.  The walk is polynomial thanks to suffix-state
#: merging, but adversarial images (every instruction a branch) could
#: still be large; past these caps the prediction is marked incomplete
#: and the coverage oracle stops asserting containment.
MAX_STATES_PER_START = 20_000
MAX_TOTAL_STATES = 1_000_000
#: Bounds for the per-region walks (regions are small by construction);
#: a region that exceeds them is reported ``truncated`` rather than
#: silently clamped.
MAX_REGION_STARTS = 64
MAX_REGION_STATES = 5_000


@dataclass(frozen=True)
class RegionPrediction:
    """Statically delimited extent of one preconstruction region."""

    start_pc: int
    kind: str                     # "loop_exit" | "call_return" | "entry"
    procedure: str
    trace_count: int
    covered_instructions: int
    footprint_instructions: int   # seed's block-level footprint estimate
    truncated: bool = False       # walk hit a region bound; counts are lower

    def to_dict(self) -> dict[str, object]:
        return {
            "covered_instructions": self.covered_instructions,
            "footprint_instructions": self.footprint_instructions,
            "kind": self.kind,
            "procedure": self.procedure,
            "start_pc": self.start_pc,
            "trace_count": self.trace_count,
            "truncated": self.truncated,
        }


@dataclass(frozen=True)
class CoveragePrediction:
    """The static prediction of everything trace selection can produce."""

    config: SelectionConfig
    entry: int
    start_pcs: frozenset[int]
    covered_pcs: frozenset[int]
    trace_count: int
    regions: tuple[RegionPrediction, ...]
    live_pcs: frozenset[int]      # reachable-from-entry instruction pcs
    complete: bool
    states_explored: int

    # -- containment queries (the oracle's interface) ------------------
    def predicts_start(self, pc: int) -> bool:
        return pc in self.start_pcs

    def covers(self, pc: int) -> bool:
        return pc in self.covered_pcs

    @property
    def coverage_ratio(self) -> float:
        """Fraction of live code predicted to be executed."""
        if not self.live_pcs:
            return 0.0
        return len(self.covered_pcs & self.live_pcs) / len(self.live_pcs)

    @property
    def overapproximation_ratio(self) -> float:
        """Predicted coverage relative to live code; > 1 means the
        prediction claims pcs no dynamic execution can reach."""
        if not self.live_pcs:
            return 0.0
        return len(self.covered_pcs) / len(self.live_pcs)

    # -- serialisation -------------------------------------------------
    def summary_dict(self) -> dict[str, object]:
        """Compact, digest-based form for golden files and CI diffs."""
        return {
            "complete": self.complete,
            # The stops and the length limit are fixed rules now; their
            # keys stay so the serialised form keeps its shape.
            "config": {
                "align_multiple": self.config.align_multiple,
                "end_at_indirect": True,
                "end_at_returns": True,
                "max_length": MAX_TRACE_LENGTH,
            },
            "coverage_ratio": round(self.coverage_ratio, 6),
            "covered_count": len(self.covered_pcs),
            "covered_digest": _digest(self.covered_pcs),
            "entry": self.entry,
            "live_count": len(self.live_pcs),
            "region_count": len(self.regions),
            "regions_digest": _digest(
                (r.start_pc, r.trace_count, r.covered_instructions)
                for r in self.regions),
            "start_count": len(self.start_pcs),
            "start_digest": _digest(self.start_pcs),
            "trace_count": self.trace_count,
        }

    def to_dict(self) -> dict[str, object]:
        out = self.summary_dict()
        out["regions"] = [r.to_dict() for r in self.regions]
        out["states_explored"] = self.states_explored
        return out


def _digest(values: Iterable[object]) -> str:
    text = ",".join(repr(v) for v in sorted(values))  # type: ignore[type-var]
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def format_prediction(prediction: CoveragePrediction,
                      name: str = "") -> str:
    """Human-readable prediction text (``python -m repro predict``)."""
    lines = [f"static coverage prediction: {name or '<image>'}"]
    lines.append(
        f"  entry 0x{prediction.entry:04x}, "
        f"{len(prediction.start_pcs)} trace start points, "
        f"{prediction.trace_count} distinct traces")
    lines.append(
        f"  {len(prediction.covered_pcs)} instructions covered / "
        f"{len(prediction.live_pcs)} live "
        f"({prediction.coverage_ratio:.1%} of live code, "
        f"{prediction.overapproximation_ratio:.3f}x overapproximation)")
    status = "complete" if prediction.complete \
        else "INCOMPLETE (state budget exhausted)"
    lines.append(f"  exploration {status}: "
                 f"{prediction.states_explored} states")
    lines.append(f"  {len(prediction.regions)} preconstruction regions:")
    for region in prediction.regions:
        mark = "  [truncated]" if region.truncated else ""
        lines.append(
            f"    0x{region.start_pc:04x}  {region.kind:<11s} "
            f"{region.procedure:<16s} traces={region.trace_count:<4d} "
            f"covered={region.covered_instructions:<4d} "
            f"footprint={region.footprint_instructions}{mark}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------
@dataclass
class _Walk:
    """Shared state of one whole-image prediction walk."""

    image: ProgramImage
    facts: StaticFacts
    config: SelectionConfig
    covered: set[int] = field(default_factory=set)
    traces: set[tuple[int, ...]] = field(default_factory=set)
    states: int = 0
    complete: bool = True

    def __post_init__(self) -> None:
        cfg = self.facts.cfg
        #: Return points of every call site in a *live* caller, keyed
        #: by callee name.  A dynamic return can only transfer to a
        #: caller that actually called, and only live procedures ever
        #: execute a call — so restricting to live callers is sound and
        #: keeps dead linker garbage out of the prediction.
        self.return_targets: dict[str, tuple[int, ...]] = {}
        live = self.facts.callgraph.live
        by_callee: dict[str, set[int]] = {}
        for site in self.facts.callgraph.sites:
            if site.caller not in live:
                continue
            for callee in site.targets:
                by_callee.setdefault(callee, set()).add(
                    site.pc + INSTRUCTION_BYTES)
        self.return_targets = {name: tuple(sorted(pcs))
                               for name, pcs in by_callee.items()}
        self.fptr_entries: tuple[int, ...] = cfg.entry_targets()
        self._succ_cache: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def successors(self, pc: int, inst: Instruction) -> tuple[int, ...]:
        """Dynamic may-successors of ``pc`` inside the trace stream."""
        cached = self._succ_cache.get(pc)
        if cached is not None:
            return cached
        cfg = self.facts.cfg
        if inst.is_return:
            proc = cfg.procedure_of(pc)
            out: tuple[int, ...] = () if proc is None \
                else self.return_targets.get(proc.name, ())
        elif inst.kind is Kind.CALL_INDIRECT:
            out = self._indirect_targets(pc) or self.fptr_entries
        elif inst.kind is Kind.JUMP_INDIRECT:
            block = cfg.block_at(pc)
            out = block.successors if block is not None else ()
        else:
            out = instruction_successors(self.image, pc)
        self._succ_cache[pc] = out
        return out

    def _indirect_targets(self, pc: int) -> tuple[int, ...]:
        cfg = self.facts.cfg
        resolved = resolve_indirect_table(self.image, pc,
                                          cfg.reloc_targets)
        if resolved is None:
            proc = cfg.procedure_of(pc)
            if proc is not None:
                resolved = resolve_table_via_dataflow(self.facts, proc,
                                                      pc)
        return tuple(sorted(set(resolved))) if resolved else ()

    # ------------------------------------------------------------------
    def explore(self, start: int, region: bool = False,
                ) -> tuple[set[int], int, bool]:
        """All static trace paths from ``start``; returns the set of
        follow-on start points, the number of traces emitted, and
        whether the walk was truncated by a budget.

        ``region`` restricts the follow-on set to length-rule
        continuations (the region-bounding rules of §2.2: returns and
        indirect transfers end the region) and charges the walk to a
        separate budget — a truncated region estimate does not weaken
        the whole-image containment claim.
        """
        align = self.config.align_multiple
        new_starts: set[int] = set()
        emitted = 0
        truncated = False
        visited: set[tuple[object, ...]] = set()
        # Each state carries the index of the last backward branch
        # before its final pc, so no pop re-fetches its path.
        stack: list[tuple[tuple[int, ...], Optional[int]]] = [
            ((start,), None)]
        budget = MAX_REGION_STATES if region else MAX_STATES_PER_START
        spent = 0
        while stack:
            path, last_backward = stack.pop()
            spent += 1
            if not region:
                self.states += 1
            if spent > budget or (not region
                                  and self.states > MAX_TOTAL_STATES):
                truncated = True
                if not region:
                    self.complete = False
                break
            pc = path[-1]
            inst = self.image.try_fetch(pc)
            if inst is None:
                continue            # ran off the image: verifier territory
            self.covered.add(pc)
            n = len(path)
            if inst.is_return or inst.is_indirect:
                self.traces.add(path)
                emitted += 1
                if not region:
                    new_starts.update(self.successors(pc, inst))
                continue
            if inst.is_backward:
                last_backward = n - 1
            if n >= MAX_TRACE_LENGTH:
                cut = aligned_cut(n, last_backward, align)
                self.traces.add(path[:cut])
                emitted += 1
                if cut < n:
                    new_starts.add(path[cut])
                else:
                    new_starts.update(self.successors(pc, inst))
                continue
            if inst.kind is Kind.HALT:
                continue            # stream ends; flush is partial-only
            for succ in self.successors(pc, inst):
                nxt = path + (succ,)
                key = self._state_key(nxt, last_backward)
                if key not in visited:
                    visited.add(key)
                    stack.append((nxt, last_backward))
        return new_starts, emitted, truncated

    @staticmethod
    def _state_key(path: tuple[int, ...], last_backward: Optional[int]
                   ) -> tuple[object, ...]:
        """Future-exact merge key for a partial trace path.

        Delimitation from here on depends only on the current pc, the
        buffered length, and the pcs after the last backward branch
        (the only candidates for an aligned-cut continuation start).
        ``last_backward`` indexes the last backward branch of ``path``
        without its final pc.
        """
        if last_backward is None:
            return (path[-1], len(path))
        return (path[-1], len(path), last_backward,
                path[last_backward + 1:])


def predict_coverage(image: ProgramImage,
                     config: Optional[SelectionConfig] = None,
                     facts: Optional[StaticFacts] = None,
                     ) -> CoveragePrediction:
    """Statically predict the full trace population of ``image``.

    The start-point closure begins at the image entry plus every static
    region seed (§3.2's start-point population) and follows the
    continuation starts each explored start produces, until closed.
    """
    config = config or SelectionConfig()
    facts = facts or StaticFacts(image)
    walk = _Walk(image=image, facts=facts, config=config)
    seeds = compute_static_seeds(image, facts.cfg, facts.callgraph)

    pending: list[int] = [image.entry]
    pending.extend(seed.pc for seed in seeds)
    starts: set[int] = set()
    while pending:
        start = pending.pop()
        if start in starts or image.try_fetch(start) is None:
            continue
        starts.add(start)
        follow_on, _, _ = walk.explore(start)
        pending.extend(sorted(follow_on - starts))

    regions = [_predict_region(walk, seed) for seed in seeds]
    entry_proc = facts.cfg.procedure_of(image.entry)
    regions.insert(0, _entry_region(walk, image.entry, entry_proc))

    return CoveragePrediction(
        config=config,
        entry=image.entry,
        start_pcs=frozenset(starts),
        covered_pcs=frozenset(walk.covered),
        trace_count=len(walk.traces),
        regions=tuple(regions),
        live_pcs=frozenset(reachable_addresses(image)),
        complete=walk.complete,
        states_explored=walk.states,
    )


def _predict_region(walk: _Walk, seed: StaticSeed) -> RegionPrediction:
    covered, traces, truncated = _region_walk(walk, seed.pc)
    return RegionPrediction(
        start_pc=seed.pc, kind=seed.kind, procedure=seed.procedure,
        trace_count=traces, covered_instructions=len(covered),
        footprint_instructions=seed.footprint_instructions,
        truncated=truncated)


def _entry_region(walk: _Walk, entry: int,
                  proc: Optional[ProcedureRange]) -> RegionPrediction:
    """The program's first region: preconstruction-free startup."""
    covered, traces, truncated = _region_walk(walk, entry)
    return RegionPrediction(
        start_pc=entry, kind="entry",
        procedure=proc.name if proc is not None else "?",
        trace_count=traces, covered_instructions=len(covered),
        footprint_instructions=len(covered), truncated=truncated)


def _region_walk(walk: _Walk, start: int) -> tuple[set[int], int, bool]:
    """Delimit one region: follow length-rule continuations only."""
    saved = walk.covered
    walk.covered = set()
    try:
        starts: set[int] = set()
        pending = [start]
        traces = 0
        truncated = False
        while pending:
            if len(starts) >= MAX_REGION_STARTS:
                truncated = True
                break
            pc = pending.pop()
            if pc in starts or walk.image.try_fetch(pc) is None:
                continue
            starts.add(pc)
            follow_on, emitted, cut_short = walk.explore(pc, region=True)
            traces += emitted
            truncated = truncated or cut_short
            pending.extend(sorted(follow_on - starts))
        return walk.covered, traces, truncated
    finally:
        walk.covered = saved | walk.covered
