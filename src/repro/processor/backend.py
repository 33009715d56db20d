"""Backend timing model: distributed trace-processor execution engine.

Models the paper's §4.1 configuration:

* four processing elements, each holding one trace (16-instruction
  window each, 64 total);
* two-way issue per PE with *windowed dynamic scheduling*: each cycle a
  PE issues up to two ready instructions from among the oldest
  ``issue_lookahead`` unissued instructions of its trace.  A lookahead
  of 1 degenerates to strict in-order issue; 16 is full out-of-order
  within the trace.  The default (5) models a small select window —
  this is why the preprocessing scheduler earns its keep by moving
  ready work into view;
* full internal bypassing (dependent ops back-to-back within a PE);
* global result buses (8 total) for cross-PE register communication: a
  result produced in cycle N is broadcast in cycle N+1 and usable by
  other PEs in cycle N+2 — one extra cycle beyond completion, plus
  possible bus contention;
* in-order trace retirement (enforced by the timing driver).

Intra-trace ordering constraints (RAW dataflow, load/store order,
control order) come from :mod:`repro.preprocess.dependence` so the
backend and the preprocessing scheduler agree on what is legal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.caches.dcache import DataCache, DCacheConfig
from repro.isa import Instruction, Kind
from repro.preprocess.dependence import build_dependence_graph
from repro.processor.latencies import instruction_latency


@dataclass(frozen=True)
class BackendConfig:
    """Execution-engine geometry (paper §4.1 defaults)."""

    num_pes: int = 4
    issue_per_pe: int = 2
    issue_lookahead: int = 5
    result_buses: int = 8
    cross_pe_delay: int = 1    # extra cycles beyond completion
    redirect_penalty: int = 1  # fetch redirect after a resolved mispredict

    def __post_init__(self) -> None:
        if min(self.num_pes, self.issue_per_pe, self.result_buses,
               self.issue_lookahead) <= 0:
            raise ValueError("backend geometry must be positive")


class _RegValue:
    """Producer record for one architectural register."""

    __slots__ = ("ready", "pe", "broadcast")

    def __init__(self, ready: int, pe: int) -> None:
        self.ready = ready
        self.pe = pe
        self.broadcast: int | None = None  # bus slot, allocated lazily


@dataclass
class TraceTiming:
    """Timing outcome of executing one trace."""

    dispatch: int
    done: int              # all instructions complete
    last_control: int      # last control transfer resolved
    issue_stalls: int = 0  # instruction-cycles spent waiting to issue


class _Template:
    """Per-instruction-tuple facts :meth:`BackendModel.execute_trace`
    needs, computed once per distinct tuple."""

    __slots__ = ("instructions", "preds", "external", "memory",
                 "latency", "last_writers", "controls")

    def __init__(self, instructions: tuple[Instruction, ...]) -> None:
        #: Pins the tuple so its id() cannot be reused while memoised.
        self.instructions = instructions
        graph = build_dependence_graph(instructions)
        #: Intra-trace ordering predecessors of each instruction.
        self.preds = tuple(tuple(preds) for preds in graph.preds)
        #: ``(index, register)`` for each source with no earlier in-trace
        #: producer, in program order — the order result-bus slots are
        #: allocated in.
        external: list[tuple[int, int]] = []
        #: ``(memory ordinal, is_store)`` per instruction, ``None`` for
        #: non-memory instructions.
        self.memory: list[Optional[tuple[int, bool]]] = []
        ordinal = 0
        last_writers: dict[int, int] = {}
        for i, inst in enumerate(instructions):
            for reg in inst.source_registers():
                if reg not in last_writers:
                    external.append((i, reg))
            dest = inst.destination_register()
            if dest is not None:
                last_writers[dest] = i
            if inst.kind is Kind.LOAD or inst.kind is Kind.STORE:
                self.memory.append((ordinal, inst.kind is Kind.STORE))
                ordinal += 1
            else:
                self.memory.append(None)
        self.external = tuple(external)
        self.latency = tuple(instruction_latency(inst)
                             for inst in instructions)
        #: ``(register, index of its last writer)``, in first-write order.
        self.last_writers = tuple(last_writers.items())
        self.controls = tuple(
            i for i, inst in enumerate(instructions)
            if inst.is_control or inst.is_conditional_branch)


#: Completion time of an instruction that has not issued: later than any
#: cycle, so "issued and complete by ``cycle``" is ``complete <= cycle``.
_NOT_ISSUED = 1 << 62


class BackendModel:
    """Shared backend state across the whole run."""

    def __init__(self, config: BackendConfig | None = None,
                 dcache: DataCache | None = None) -> None:
        self.config = config or BackendConfig()
        self.dcache = dcache if dcache is not None else DataCache(
            DCacheConfig())
        self._regs: dict[int, _RegValue] = {}
        self._bus_load: Counter = Counter()
        #: Per-tuple templates, keyed by id(); the template pins the tuple.
        self._templates: dict[int, _Template] = {}
        self.pe_free: list[int] = [0] * self.config.num_pes
        self.bus_conflicts = 0

    # ------------------------------------------------------------------
    def _operand_ready(self, reg: int, pe: int, dispatch: int) -> int:
        """Availability of a register produced *outside* this trace."""
        value = self._regs.get(reg)
        if value is None:
            return 0
        if value.pe == pe or value.ready <= dispatch:
            # Same PE (bypassed) or already architected when we started.
            return value.ready
        # Cross-PE: needs a global result bus.
        if value.broadcast is None:
            slot = value.ready
            while self._bus_load[slot] >= self.config.result_buses:
                slot += 1
                self.bus_conflicts += 1
            self._bus_load[slot] += 1
            value.broadcast = slot
        return value.broadcast + self.config.cross_pe_delay

    # ------------------------------------------------------------------
    def execute_trace(self, instructions: tuple[Instruction, ...],
                      dispatch: int, pe: int,
                      mem_addrs: Sequence[int] = ()) -> TraceTiming:
        """Timestamp one trace's execution on ``pe`` starting at
        ``dispatch``; updates shared register/bus state.

        ``mem_addrs`` is indexed by each memory instruction's position
        among the trace's memory instructions (preprocessing preserves
        relative memory order, so the mapping survives scheduling).
        Loads complete through the data-cache timing model; stores
        retire into the write buffer after their port access.

        Each cycle a PE issues up to ``issue_per_pe`` ready instructions
        from the oldest ``issue_lookahead`` unissued ones.  A cycle that
        issues nothing changes no state, so the loop jumps straight to
        the next cycle in which some window entry becomes ready,
        charging the skipped cycles' stalls in one step.
        """
        template = self._templates.get(id(instructions))
        if template is None or template.instructions is not instructions:
            template = _Template(instructions)
            self._templates[id(instructions)] = template

        # External operand availability per instruction: sources with no
        # in-trace producer read backend register state.
        external_ready = [dispatch] * len(instructions)
        operand_ready = self._operand_ready
        for index, reg in template.external:
            ready = operand_ready(reg, pe, dispatch)
            if ready > external_ready[index]:
                external_ready[index] = ready

        config = self.config
        width = config.issue_per_pe
        lookahead = config.issue_lookahead
        preds = template.preds
        memory = template.memory
        latency = template.latency
        access = self.dcache.access
        complete = [_NOT_ISSUED] * len(instructions)
        pending = list(range(len(instructions)))
        cycle = dispatch
        stalls = 0
        while pending:
            window = pending[:lookahead]
            issued = 0
            next_ready = _NOT_ISSUED
            for index in window:
                if issued == width:
                    break
                ready = external_ready[index]
                for pred in preds[index]:
                    if complete[pred] > ready:
                        ready = complete[pred]
                if ready > cycle:
                    if ready < next_ready:
                        next_ready = ready
                    continue
                mem = memory[index]
                if mem is not None and mem_addrs:
                    ordinal, is_store = mem
                    addr = (mem_addrs[ordinal] if ordinal < len(mem_addrs)
                            else 0)
                    delay = access(addr, is_store, cycle, pe)
                    complete[index] = cycle + (1 if is_store else delay)
                else:
                    complete[index] = cycle + latency[index]
                issued += 1
            charged = min(len(window), width)
            if issued:
                pending = [i for i in pending if complete[i] == _NOT_ISSUED]
                stalls += charged - issued
                cycle += 1
            else:
                # Nothing can issue before next_ready (the window's
                # oldest entry always has every predecessor issued).
                stalls += (next_ready - cycle) * charged
                cycle = next_ready

        regs = self._regs
        for dest, index in template.last_writers:
            regs[dest] = _RegValue(complete[index], pe)
        done = max(dispatch, max(complete, default=dispatch))
        last_control = dispatch
        for index in template.controls:
            if complete[index] > last_control:
                last_control = complete[index]
        return TraceTiming(dispatch=dispatch, done=done,
                           last_control=last_control, issue_stalls=stalls)
