"""Traces: snapshots of short segments of the dynamic instruction stream.

A trace is identified by its starting PC and the outcomes of the
conditional branches inside it (the paper indexes both the trace cache
and the preconstruction buffers "by hashing the starting address of the
trace with the branch outcomes").  Register-indirect transfers embed
their observed targets in the identity as well, since two dynamic paths
can otherwise share a start address and outcome vector while diverging
at a jump table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import Instruction

MAX_TRACE_LENGTH = 16
"""Paper: 'Traces have a maximum length of 16 instructions.'"""


@dataclass(frozen=True, slots=True)
class TraceID:
    """Hashable identity of a trace.

    Trace identities are hashed on every trace-cache and
    preconstruction-buffer probe — several times per dispatched trace —
    so the hash and the set index are computed once at construction
    and cached.  Equality
    short-circuits on identity first: the selector interns the IDs it
    emits, so repeated traces usually compare as the same object.
    """

    start_pc: int
    outcomes: tuple[bool, ...]
    indirect_targets: tuple[int, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)
    #: Trace-cache and preconstruction-buffer set index before the
    #: modulo: the start address folded with the branch outcomes.
    _index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash",
            hash((self.start_pc, self.outcomes, self.indirect_targets)))
        outcome_bits = 0
        for outcome in self.outcomes:
            outcome_bits = (outcome_bits << 1) | outcome
        object.__setattr__(
            self, "_index", (self.start_pc >> 2) ^ (outcome_bits * 0x9E37))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not TraceID:
            return NotImplemented
        return (self._hash == other._hash
                and self.start_pc == other.start_pc
                and self.outcomes == other.outcomes
                and self.indirect_targets == other.indirect_targets)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        bits = "".join("T" if o else "N" for o in self.outcomes)
        return f"{self.start_pc:#x}/{bits or '-'}"


@dataclass(frozen=True, slots=True)
class Trace:
    """A completed trace plus the metadata the frontend needs.

    ``next_pc`` is the address of the dynamically next instruction after
    the trace — where an *aligned* successor trace must begin.
    ``ends_in_call`` / ``ends_in_return`` drive the next-trace
    predictor's Return History Stack.
    """

    trace_id: TraceID
    instructions: tuple[Instruction, ...]
    pcs: tuple[int, ...]
    next_pc: int
    ends_in_call: bool
    ends_in_return: bool
    partial: bool = False
    """True only for a trace emitted by an end-of-stream flush: it was
    cut by the measurement boundary rather than a selection rule, so
    its identity may collide with the properly delimited trace from the
    same start point.  Partial traces must never be cached."""

    _memo: dict = field(default_factory=dict, init=False,
                        compare=False, repr=False)
    """Memos of pure functions of the trace (:meth:`line_runs` per line
    size, :meth:`lines`, the preconstruction engine's dispatch cues);
    traces are immutable, so a memo never changes once computed."""

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("empty trace")
        if len(self.instructions) > MAX_TRACE_LENGTH:
            raise ValueError("trace exceeds maximum length")
        if len(self.instructions) != len(self.pcs):
            raise ValueError("instructions/pcs length mismatch")
        if self.pcs[0] != self.trace_id.start_pc:
            raise ValueError("trace id start does not match first pc")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def start_pc(self) -> int:
        return self.trace_id.start_pc

    def lines(self, line_bytes: int = 64) -> tuple[int, ...]:
        """Distinct cache-line addresses in first-touch order.

        The spatial footprint the I-cache-side prefetch mechanisms
        (:mod:`repro.frontends`) key on.  Unlike :meth:`line_runs`
        revisits are deduplicated.  Memoized like :meth:`line_runs`.
        """
        key = ("lines", line_bytes)
        memo = self._memo.get(key)
        if memo is None:
            seen: set[int] = set()
            out: list[int] = []
            for line, _count in self.line_runs(line_bytes):
                if line not in seen:
                    seen.add(line)
                    out.append(line)
            memo = tuple(out)
            self._memo[key] = memo
        return memo

    def line_runs(self, line_bytes: int) -> tuple[tuple[int, int], ...]:
        """Consecutive same-line runs of the trace's dynamic path.

        Returns ``((line_address, instruction_count), ...)`` — the
        access pattern the slow-path fetch unit presents to the I-cache.
        Memoized: the timing models walk this once per dynamic
        occurrence of the trace, and the pcs are immutable.
        """
        runs = self._memo.get(line_bytes)
        if runs is None:
            out: list[tuple[int, int]] = []
            run_line = -1
            run_count = 0
            for pc in self.pcs:
                line = pc - (pc % line_bytes)
                if line == run_line:
                    run_count += 1
                else:
                    if run_count:
                        out.append((run_line, run_count))
                    run_line, run_count = line, 1
            out.append((run_line, run_count))
            runs = tuple(out)
            self._memo[line_bytes] = runs
        return runs
