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


class Template:
    """What :meth:`BackendModel.execute_trace` reads of one instruction
    tuple, computed once per trace and shared by every point.

    The instruction tuple itself is not kept.  ``intern`` is a table of
    the tuples already built (the plan's ``interned``): a new tuple equal
    to one in it is replaced by that one, so the templates of one
    partition share their many equal rows and pairs.
    """

    __slots__ = ("ops", "external", "last_writers", "controls")

    def __init__(self, instructions: Sequence[Instruction],
                 intern: Optional[dict[tuple, tuple]] = None) -> None:
        table: dict[tuple, tuple] = {} if intern is None else intern
        share = table.setdefault
        graph = build_dependence_graph(instructions)
        ops = []
        external = []
        #: Register -> index of its last in-trace writer.
        last_writers: dict[int, int] = {}
        ordinal = 0
        for i, inst in enumerate(instructions):
            for reg in inst.source_registers():
                if reg not in last_writers:
                    external.append(share((i, reg), (i, reg)))
            dest = inst.destination_register()
            if dest is not None:
                last_writers[dest] = i
            memory: Optional[tuple[int, bool]] = None
            if inst.kind is Kind.LOAD or inst.kind is Kind.STORE:
                memory = (ordinal, inst.kind is Kind.STORE)
                ordinal += 1
            preds = tuple(sorted(graph.preds[i]))
            row = (share(preds, preds), instruction_latency(inst), memory)
            ops.append(share(row, row))
        #: ``(predecessors, latency, memory)`` per instruction: its
        #: intra-trace ordering predecessors, and ``(memory ordinal,
        #: is_store)`` for a load or store, else ``None``.
        self.ops = tuple(ops)
        #: ``(index, register)`` for each source with no earlier in-trace
        #: producer, in program order — the order result-bus slots are
        #: allocated in.
        self.external = tuple(external)
        #: ``(register, index of its last writer)``, in first-write order.
        self.last_writers = tuple(share(pair, pair)
                                  for pair in last_writers.items())
        controls = tuple(i for i, inst in enumerate(instructions)
                         if inst.is_control or inst.is_conditional_branch)
        self.controls = share(controls, controls)


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
        #: Result-bus broadcasts per cycle (cycles with none are absent).
        self._bus_load: dict[int, int] = {}
        self.pe_free: list[int] = [0] * self.config.num_pes
        self.bus_conflicts = 0

    # ------------------------------------------------------------------
    def execute_trace(self, template: Template, dispatch: int, pe: int,
                      mem_addrs: Sequence[int] = ()) -> TraceTiming:
        """Timestamp one trace's execution on ``pe`` starting at
        ``dispatch``; updates shared register/bus state.

        ``template`` is the trace's :class:`Template`, which holds no
        backend state, so any number of backends may share it.
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
        config = self.config
        ops = template.ops
        n = len(ops)

        # External operand availability per instruction: a source with
        # no in-trace producer reads backend register state.  A value
        # from another PE that was still in flight at dispatch needs a
        # global result bus; it is broadcast once, in the first cycle
        # from its completion with a free bus.
        external_ready = [dispatch] * n
        regs = self._regs
        bus_load = self._bus_load
        for index, reg in template.external:
            value = regs.get(reg)
            if value is None:
                continue
            ready = value.ready
            if value.pe != pe and ready > dispatch:
                slot = value.broadcast
                if slot is None:
                    slot = ready
                    while bus_load.get(slot, 0) >= config.result_buses:
                        slot += 1
                        self.bus_conflicts += 1
                    bus_load[slot] = bus_load.get(slot, 0) + 1
                    value.broadcast = slot
                ready = slot + config.cross_pe_delay
            if ready > external_ready[index]:
                external_ready[index] = ready

        width = config.issue_per_pe
        lookahead = config.issue_lookahead
        access = self.dcache.access
        complete = [_NOT_ISSUED] * n
        # An entry's ready cycle once every predecessor has issued (and
        # so has a final completion time); ``_NOT_ISSUED`` until then.
        settled = [_NOT_ISSUED] * n
        # The window holds the oldest unissued instructions, oldest
        # first; every one after it is unissued, so the queue behind it
        # is just the index range from ``queued`` on.
        queued = min(n, lookahead)
        window = list(range(queued))
        cycle = dispatch
        stalls = 0
        while window:
            charged = min(len(window), width)
            issued = 0
            next_ready = _NOT_ISSUED
            position = 0
            while position < len(window):
                index = window[position]
                ready = settled[index]
                if ready == _NOT_ISSUED:
                    ready = external_ready[index]
                    for pred in ops[index][0]:
                        if complete[pred] > ready:
                            ready = complete[pred]
                    if ready < _NOT_ISSUED:
                        settled[index] = ready
                if ready > cycle:
                    if ready < next_ready:
                        next_ready = ready
                    position += 1
                    continue
                _, latency, memory = ops[index]
                if memory is not None and mem_addrs:
                    ordinal, is_store = memory
                    addr = (mem_addrs[ordinal] if ordinal < len(mem_addrs)
                            else 0)
                    delay = access(addr, is_store, cycle, pe)
                    complete[index] = cycle + (1 if is_store else delay)
                else:
                    complete[index] = cycle + latency
                del window[position]  # issued: its place goes to the queue
                issued += 1
                if issued == width:
                    break
            if issued:
                if queued < n:
                    top = min(n, queued + issued)
                    window.extend(range(queued, top))
                    queued = top
                stalls += charged - issued
                cycle += 1
            else:
                # Nothing can issue before next_ready (the window's
                # oldest entry always has every predecessor issued).
                stalls += (next_ready - cycle) * charged
                cycle = next_ready

        for dest, index in template.last_writers:
            regs[dest] = _RegValue(complete[index], pe)
        last_control = dispatch
        for index in template.controls:
            if complete[index] > last_control:
                last_control = complete[index]
        # Every instruction completes at least a cycle after dispatch.
        return TraceTiming(dispatch=dispatch,
                           done=max(complete, default=dispatch),
                           last_control=last_control, issue_stalls=stalls)
