"""Tests for the backend timing model (PEs, buses, windowed issue)."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.dcache import DataCache, DCacheConfig
from repro.isa import Instruction, Kind, Opcode, assemble
from repro.preprocess.dependence import build_dependence_graph
from repro.processor import BackendConfig, BackendModel, TraceTiming
from repro.processor.backend import Template, _RegValue


def _seq(source: str) -> Template:
    insts, _ = assemble(source)
    return Template(insts)


class TestSingleTraceTiming:
    def test_independent_ops_issue_two_wide(self):
        backend = BackendModel(BackendConfig())
        seq = _seq("""
            addi r1, r0, 1
            addi r2, r0, 2
            addi r3, r0, 3
            addi r4, r0, 4
        """)
        timing = backend.execute_trace(seq, dispatch=0, pe=0)
        # 4 independent 1-cycle ops at 2/cycle: done at cycle 2.
        assert timing.done == 2

    def test_dependent_chain_serialises(self):
        backend = BackendModel()
        seq = _seq("""
            addi r1, r0, 1
            addi r2, r1, 1
            addi r3, r2, 1
            addi r4, r3, 1
        """)
        timing = backend.execute_trace(seq, dispatch=0, pe=0)
        # Back-to-back dependent 1-cycle ops: one per cycle.
        assert timing.done == 4

    def test_latency_respected(self):
        backend = BackendModel()
        seq = _seq("""
            mul r1, r9, r9
            addi r2, r1, 1
        """)
        timing = backend.execute_trace(seq, dispatch=0, pe=0)
        # mul issues at 0, completes at 3; add issues at 3, completes 4.
        assert timing.done == 4

    def test_dispatch_offset_shifts_everything(self):
        backend = BackendModel()
        seq = _seq("addi r1, r0, 1")
        timing = backend.execute_trace(seq, dispatch=10, pe=0)
        assert timing.done == 11

    def test_last_control_tracked(self):
        backend = BackendModel()
        seq = _seq("""
            addi r1, r0, 1
            beq  r1, r0, 8
            addi r2, r0, 2
        """)
        timing = backend.execute_trace(seq, dispatch=0, pe=0)
        assert timing.last_control >= 2  # branch waits for r1


class TestCrossPECommunication:
    def test_cross_pe_value_pays_bus_delay(self):
        backend = BackendModel(BackendConfig(cross_pe_delay=1))
        producer = _seq("mul r1, r9, r9")  # completes at 3 on PE 0
        backend.execute_trace(producer, dispatch=0, pe=0)
        consumer = _seq("addi r2, r1, 1")
        same_pe = BackendModel(BackendConfig())
        same_pe.execute_trace(producer, dispatch=0, pe=0)
        t_same = same_pe.execute_trace(consumer, dispatch=0, pe=0)
        t_cross = backend.execute_trace(consumer, dispatch=0, pe=1)
        assert t_cross.done == t_same.done + 1

    def test_old_values_are_free(self):
        """A value architected before this trace dispatched needs no
        bus (it's in the register file)."""
        backend = BackendModel()
        backend.execute_trace(_seq("addi r1, r0, 5"), dispatch=0, pe=0)
        timing = backend.execute_trace(_seq("addi r2, r1, 1"),
                                       dispatch=10, pe=1)
        assert timing.done == 11

    def test_bus_contention_counted(self):
        config = BackendConfig(result_buses=1)
        backend = BackendModel(config)
        # Two producers on PE0 completing the same cycle...
        backend.execute_trace(_seq("""
            addi r1, r0, 1
            addi r2, r0, 2
        """), dispatch=0, pe=0)
        # ...consumed cross-PE while still in flight.
        backend.execute_trace(_seq("""
            addi r3, r1, 1
            addi r4, r2, 1
        """), dispatch=0, pe=1)
        assert backend.bus_conflicts >= 1

    def test_bus_slots_follow_program_order(self):
        """Contended result-bus slots go to a trace's external sources
        in program order."""
        backend = BackendModel(BackendConfig(result_buses=1))
        backend.execute_trace(_seq("""
            addi r1, r0, 1
            addi r2, r0, 2
        """), dispatch=0, pe=0)
        backend.execute_trace(_seq("add r3, r2, r1"), dispatch=0, pe=1)
        assert backend._regs[2].broadcast == 1
        assert backend._regs[1].broadcast == 2


class TestWindowedIssue:
    CHAIN_THEN_INDEPENDENT = """
        mul  r1, r9, r9
        mul  r2, r1, r1
        mul  r3, r2, r2
        addi r4, r0, 1
        addi r5, r0, 2
        addi r6, r0, 3
        addi r7, r0, 4
        addi r8, r0, 5
    """

    def _done(self, lookahead: int) -> int:
        backend = BackendModel(BackendConfig(issue_lookahead=lookahead))
        timing = backend.execute_trace(_seq(self.CHAIN_THEN_INDEPENDENT),
                                       dispatch=0, pe=0)
        return timing.done

    def test_larger_window_never_slower(self):
        times = [self._done(look) for look in (1, 2, 4, 8, 16)]
        for small, large in zip(times, times[1:]):
            assert large <= small

    def test_in_order_window_blocks_on_chain(self):
        """Lookahead 1 (strict in-order) must stall behind the mul
        chain; a big window runs the independent adds underneath."""
        assert self._done(1) > self._done(16)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(num_pes=0)
        with pytest.raises(ValueError):
            BackendConfig(issue_lookahead=0)


class _ReferenceBackend(BackendModel):
    """The per-cycle issue loop: every cycle is walked one at a time,
    including the ones in which nothing issues, over the instructions'
    full dependence graph."""

    def _operand_ready(self, reg, pe, dispatch):
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
            while self._bus_load.get(slot, 0) >= self.config.result_buses:
                slot += 1
                self.bus_conflicts += 1
            self._bus_load[slot] = self._bus_load.get(slot, 0) + 1
            value.broadcast = slot
        return value.broadcast + self.config.cross_pe_delay

    def execute_trace(self, instructions, dispatch, pe, mem_addrs=()):
        config = self.config
        n = len(instructions)
        graph = build_dependence_graph(instructions)
        produced_in_trace = {}
        external_ready = [dispatch] * n
        for i, inst in enumerate(instructions):
            for reg in inst.source_registers():
                if reg not in produced_in_trace:
                    ready = self._operand_ready(reg, pe, dispatch)
                    if ready > external_ready[i]:
                        external_ready[i] = ready
            dest = inst.destination_register()
            if dest is not None:
                produced_in_trace.setdefault(dest, i)
        mem_index = [0] * n
        k = 0
        for i, inst in enumerate(instructions):
            if inst.kind in (Kind.LOAD, Kind.STORE):
                mem_index[i] = k
                k += 1
        complete = [0] * n
        issued = [False] * n
        pending = list(range(n))
        cycle = dispatch
        stalls = 0
        while pending:
            slots = config.issue_per_pe
            window = pending[:config.issue_lookahead]
            for index in window:
                if slots == 0:
                    break
                if external_ready[index] > cycle:
                    continue
                if any(not issued[d] or complete[d] > cycle
                       for d in graph.preds[index]):
                    continue
                issued[index] = True
                inst = instructions[index]
                if inst.kind in (Kind.LOAD, Kind.STORE) and mem_addrs:
                    pos = mem_index[index]
                    addr = mem_addrs[pos] if pos < len(mem_addrs) else 0
                    latency = self.dcache.access(
                        addr, inst.kind is Kind.STORE, cycle, pe)
                    if inst.kind is Kind.STORE:
                        latency = 1
                    complete[index] = cycle + latency
                else:
                    complete[index] = cycle + inst.latency
                slots -= 1
            pending = [i for i in pending if not issued[i]]
            stalls += min(len(window), config.issue_per_pe) - (
                config.issue_per_pe - slots)
            cycle += 1
        done = dispatch
        last_control = dispatch
        for i, inst in enumerate(instructions):
            done = max(done, complete[i])
            dest = inst.destination_register()
            if dest is not None:
                self._regs[dest] = _RegValue(complete[i], pe)
            if ((inst.is_control or inst.is_conditional_branch)
                    and complete[i] > last_control):
                last_control = complete[i]
        return TraceTiming(dispatch=dispatch, done=done,
                           last_control=last_control, issue_stalls=stalls)


_REG = st.integers(0, 4)  # r0 included: reads and writes of r0 vanish
_INSTRUCTION = st.one_of(
    st.builds(Instruction, st.sampled_from(
        [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV]),
        rd=_REG, rs1=_REG, rs2=_REG),
    st.builds(Instruction, st.sampled_from([Opcode.ADDI, Opcode.LUI]),
              rd=_REG, rs1=_REG, imm=st.integers(-4, 4)),
    st.builds(Instruction, st.just(Opcode.LW), rd=_REG, rs1=_REG),
    st.builds(Instruction, st.just(Opcode.SW), rs1=_REG, rs2=_REG),
    st.builds(Instruction, st.sampled_from([Opcode.BEQ, Opcode.BNE]),
              rs1=_REG, rs2=_REG, imm=st.sampled_from([-8, 8])),
    st.builds(Instruction, st.sampled_from([Opcode.J, Opcode.JAL]),
              imm=st.just(64)),
    st.builds(Instruction, st.sampled_from([Opcode.JR, Opcode.JALR]),
              rd=_REG, rs1=_REG),
)
_TRACE = st.lists(_INSTRUCTION, min_size=1, max_size=16).map(tuple)
_ADDRESSES = st.one_of(
    st.just(()),
    st.lists(st.sampled_from([0, 4, 64, 128, 256, 516, 1024]),
             min_size=1, max_size=16).map(tuple))


_GEOMETRY = dict(
    lookahead=st.integers(1, 6), width=st.integers(1, 3),
    buses=st.integers(1, 3), delay=st.integers(0, 2),
    ports=st.sampled_from([(1, 1), (2, 1), (4, 2)]))
_SCHEDULE = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.integers(0, 6), _ADDRESSES),
                     min_size=1, max_size=12)


def _pair(lookahead, width, buses, delay, ports):
    """A backend and its per-cycle reference model, of one geometry."""
    config = BackendConfig(num_pes=4, issue_per_pe=width,
                           issue_lookahead=lookahead,
                           result_buses=buses, cross_pe_delay=delay)
    # Two sets of four 64-byte lines: small enough to miss and evict.
    dcache = DCacheConfig(size_bytes=512, ways=4, ports=ports[0],
                          ports_per_pe=ports[1])
    return (BackendModel(config, DataCache(dcache)),
            _ReferenceBackend(config, DataCache(dcache)))


class TestSkipMatchesPerCycleLoop:
    """The idle-cycle skip and the shared per-trace template reproduce
    the per-cycle loop exactly: timings, register and bus state,
    data-cache state."""

    @settings(max_examples=120, deadline=None)
    @given(traces=st.lists(_TRACE, min_size=1, max_size=4),
           schedule=_SCHEDULE, **_GEOMETRY)
    def test_matches_reference(self, traces, schedule, lookahead, width,
                               buses, delay, ports):
        fast, slow = _pair(lookahead, width, buses, delay, ports)
        # One template per trace, reused as the plan's are.
        templates = [Template(trace) for trace in traces]
        dispatch = 0
        for which, pe, step, addresses in schedule:
            which %= len(traces)
            dispatch += step
            assert fast.execute_trace(templates[which], dispatch, pe,
                                      addresses) == \
                slow.execute_trace(traces[which], dispatch, pe, addresses)
            assert _state(fast) == _state(slow)

    @settings(max_examples=60, deadline=None)
    @given(traces=st.lists(_TRACE, min_size=1, max_size=4),
           schedules=st.tuples(_SCHEDULE, _SCHEDULE),
           first=st.fixed_dictionaries(_GEOMETRY),
           second=st.fixed_dictionaries(_GEOMETRY))
    def test_backends_sharing_templates(self, traces, schedules, first,
                                        second):
        """Two backends of different geometries take turns executing
        from one set of templates, as the points on one plan do: a
        template carries nothing from one backend to the other."""
        interned: dict = {}
        templates = [Template(trace, interned) for trace in traces]
        pairs = [_pair(**first), _pair(**second)]
        dispatch = [0, 0]
        for turn in range(max(map(len, schedules))):
            for side, schedule in enumerate(schedules):
                if turn >= len(schedule):
                    continue
                which, pe, step, addresses = schedule[turn]
                which %= len(traces)
                dispatch[side] += step
                fast, slow = pairs[side]
                assert fast.execute_trace(templates[which], dispatch[side],
                                          pe, addresses) == \
                    slow.execute_trace(traces[which], dispatch[side], pe,
                                       addresses)
                assert _state(fast) == _state(slow)


def _state(backend: BackendModel) -> tuple:
    dcache = backend.dcache
    return ({reg: (value.ready, value.pe, value.broadcast)
             for reg, value in backend._regs.items()},
            dict(backend._bus_load), backend.bus_conflicts,
            asdict(dcache.stats), dict(dcache._port_load),
            dict(dcache._pe_port_load))
