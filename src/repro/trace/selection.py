"""Trace selection: the deterministic rules that delimit traces.

Both the processor's fill unit (observing the dynamic stream) and the
preconstruction engine's trace constructors (walking static code) must
delimit traces *identically*, or preconstructed traces will not align
with what the processor later asks for (§2.2 of the paper).  All
stopping rules therefore live in one place — :class:`TraceBuilder` —
and both consumers build traces through it.

Stopping rules (paper §2.2, §4.1):

* maximum length of 16 instructions;
* traces end at return instructions ("forces traces to end at return
  instructions, so the first trace of a region following a return will
  start at the first instruction");
* traces end at register-indirect jumps/calls (targets are statically
  opaque; ending there also bounds preconstruction regions);
* the **alignment heuristic**: a trace that hits the length limit is
  truncated so that it ends a multiple of four instructions beyond the
  last backward branch it contains ("we use the heuristic of stopping a
  multiple of four instructions beyond a backward branch for both the
  base trace processor and the trace processor with preconstruction").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.engine.stream import Stream, StreamRecord, as_stream
from repro.isa import Instruction
from repro.trace.trace import MAX_TRACE_LENGTH, Trace, TraceID


def aligned_cut(n: int, last_backward: Optional[int], align: int) -> int:
    """Length to cut an ``n``-instruction trace at when the size limit
    fires.

    With alignment enabled (``align`` > 0) and a backward branch at
    index ``last_backward``, the cut lands ``k * align`` instructions
    beyond it (the largest such length not exceeding ``n``); otherwise
    the whole trace is kept.  The one copy of the rule: the fill unit's
    :class:`TraceBuilder` and the static coverage predictor both cut
    through it.
    """
    if not align or last_backward is None:
        return n
    return last_backward + 1 + ((n - last_backward - 1) // align) * align


@dataclass(frozen=True)
class SelectionConfig:
    """The one tunable delimiting rule: the alignment heuristic.

    The length limit (:data:`MAX_TRACE_LENGTH`) and the return and
    indirect-transfer stops are the paper's fixed rules (§2.2).
    """

    align_multiple: int = 4     # 0 disables the alignment heuristic

    def __post_init__(self) -> None:
        if self.align_multiple < 0:
            raise ValueError("align_multiple must be >= 0")


class TraceBuilder:
    """Accumulates dynamic instructions and emits delimited traces.

    Call :meth:`add` per instruction; a completed :class:`Trace` is
    returned when a stopping rule fires (``None`` otherwise).  On
    length-limit truncation the leftover instructions remain buffered
    as the beginning of the next trace, preserving alignment.
    """

    def __init__(self, config: SelectionConfig | None = None) -> None:
        self.config = config or SelectionConfig()
        self._entries: list[tuple[int, Instruction, bool, int]] = []
        #: Branch outcomes of the buffered entries, maintained
        #: incrementally so :meth:`_emit` need not re-scan the entries.
        self._outcomes: list[bool] = []
        #: Interning table for emitted trace identities: the same
        #: dynamic path re-emits the same (start_pc, outcomes) many
        #: times, and an interned TraceID makes every downstream
        #: equality check hit the identity fast path.
        self._id_intern: dict[tuple[int, tuple[bool, ...]], TraceID] = {}
        #: Interning table for whole traces.  Every indirect transfer
        #: ends its trace, so the instruction path is a pure function
        #: of (start_pc, outcomes) and the image, and ``next_pc``
        #: disambiguates a trailing indirect's target — the same key
        #: always denotes an identical trace and the object can be
        #: reused outright (sharing its line-run memo across all its
        #: occurrences).
        self._trace_intern: dict[tuple[TraceID, int], Trace] = {}
        #: The first rule-delimited trace emitted per identity.  Traces
        #: that share its identity and pcs (a trailing indirect with
        #: another target, or a flushed tail that happens to end where
        #: it does) share its instruction and pc tuples and its memos.
        self._paths: dict[TraceID, Trace] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending_start_pc(self) -> Optional[int]:
        return self._entries[0][0] if self._entries else None

    # ------------------------------------------------------------------
    def add(self, pc: int, inst: Instruction, taken: bool,
            next_pc: int) -> Optional[Trace]:
        """Append one dynamic instruction; return a trace if one completed."""
        entries = self._entries
        entries.append((pc, inst, taken, next_pc))
        if inst.is_conditional_branch:
            self._outcomes.append(taken)
        if inst.is_return or inst.is_indirect:
            return self._emit(len(entries))
        if len(entries) >= MAX_TRACE_LENGTH:
            return self._emit(self._aligned_cut())
        return None

    def flush(self) -> Optional[Trace]:
        """Emit whatever is buffered (end of stream / region).

        The result is marked ``partial``: it was delimited by the
        measurement boundary, not by a selection rule, so its identity
        may collide with a rule-delimited trace and it must not be
        installed in any trace store.
        """
        if not self._entries:
            return None
        return self._emit(len(self._entries), partial=True)

    def reset(self) -> None:
        self._entries.clear()
        self._outcomes.clear()

    def snapshot_entries(self) -> list[tuple[int, Instruction, bool, int]]:
        """Copy of the buffered entries (for constructor backtracking)."""
        return list(self._entries)

    def restore_entries(
            self,
            entries: list[tuple[int, Instruction, bool, int]]
    ) -> None:
        """Replace the buffer (constructor decision-point resumption)."""
        self._entries = list(entries)
        self._outcomes = [taken for _, inst, taken, _ in entries
                          if inst.is_conditional_branch]

    # ------------------------------------------------------------------
    def _aligned_cut(self) -> int:
        """Length to cut at when the size limit fires (see
        :func:`aligned_cut`)."""
        entries = self._entries
        n = len(entries)
        align = self.config.align_multiple
        if not align:
            return n
        for i in range(n - 1, -1, -1):
            if entries[i][1].is_backward:
                return aligned_cut(n, i, align)
        return n

    def _emit(self, cut: int, partial: bool = False) -> Trace:
        assert 0 < cut <= len(self._entries)
        entries = self._entries[:cut]
        rest = self._entries[cut:]
        self._entries = rest

        # Split the incrementally-tracked outcomes at the cut: only a
        # length-limit truncation leaves entries behind, and then only a
        # few, so counting the leftover's branches is cheap.
        outcome_list = self._outcomes
        if rest:
            rest_branches = sum(
                1 for e in rest if e[1].is_conditional_branch)
            if rest_branches:
                emitted = len(outcome_list) - rest_branches
                outcomes = tuple(outcome_list[:emitted])
                self._outcomes = outcome_list[emitted:]
            else:
                outcomes = tuple(outcome_list)
                self._outcomes = []
        else:
            outcomes = tuple(outcome_list)
            self._outcomes = []

        last = entries[-1]
        last_next = last[3]
        key = (entries[0][0], outcomes)
        trace_id = self._id_intern.get(key)
        if trace_id is None:
            trace_id = TraceID(start_pc=key[0], outcomes=outcomes)
            self._id_intern[key] = trace_id

        memo_key = (trace_id, last_next)
        if not partial:
            trace = self._trace_intern.get(memo_key)
            if trace is not None:
                return trace

        pcs = tuple([entry[0] for entry in entries])
        path = self._paths.get(trace_id)
        if path is not None and path.pcs == pcs:
            pcs = path.pcs
            instructions = path.instructions
        else:
            path = None
            instructions = tuple([entry[1] for entry in entries])
        last_inst = last[1]
        trace = Trace(
            trace_id=trace_id,
            instructions=instructions,
            pcs=pcs,
            next_pc=last_next,
            ends_in_call=last_inst.is_call,
            ends_in_return=last_inst.is_return,
            partial=partial,
        )
        if path is not None:
            # Every memo is a pure function of the identity and the
            # path, never of ``next_pc``: one set serves both traces.
            object.__setattr__(trace, "_memo", path._memo)
        if not partial:
            self._trace_intern[memo_key] = trace
            self._paths.setdefault(trace_id, trace)
        return trace


def traces_of_stream(stream: Union[Stream, Iterable[StreamRecord]],
                     config: SelectionConfig | None = None) -> list[Trace]:
    """Partition a full dynamic stream into its trace sequence.

    Feeds the builder straight from the :class:`Stream` arrays; a
    sequence of records is packed into one first.
    """
    stream = as_stream(stream)
    builder = TraceBuilder(config)
    add = builder.add
    out = []
    for pc, inst, taken, next_pc in zip(stream.pcs, stream.insts,
                                        map(bool, stream.taken),
                                        stream.next_pcs):
        trace = add(pc, inst, taken, next_pc)
        if trace is not None:
            out.append(trace)
    tail = builder.flush()
    if tail is not None:
        out.append(tail)
    return out
