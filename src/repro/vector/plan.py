"""Shared per-partition precomputation for the frontend dispatch loop.

Every sweep point sharing one stream partition (same benchmark,
workload seed, instruction budget and selection rules — the grouping
the runner already schedules by) would otherwise redo a large amount of
point-independent work: the next-trace predictor and the bimodal table
are trained only by the committed path, so they evolve identically at
every point; per-occurrence trace features are pure functions of the
shared trace sequence; and the slow path's bimodal predictions at
occurrence *t* read table state that is the same at every point.

A :class:`BatchPlan` computes all of it **once per partition**, in
plain Python, from the trace partition itself:

* per-occurrence lengths and conditional-branch counts;
* one next-trace-predictor replay — per-occurrence prediction outcome
  (none / correct / wrong);
* one bimodal replay — per-occurrence misprediction counts against the
  pre-update table state, exactly what the slow path would observe at
  that occurrence;
* per-occurrence branch (pc, taken) pairs and I-cache line runs
  (shared tuples across repeated traces).

Processor points also leave on the plan what they derive from a trace
and not from their own configuration: the backend templates of the
preprocessed traces (:mod:`repro.processor.timing`).

What stays per point — and real — in the dispatch loop
(:mod:`repro.sim.frontend_runner`): trace-cache and I-cache contents,
the frontend mechanism, and every stat derived from hit/miss outcomes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.branch import BimodalPredictor, NextTracePredictor
from repro.branch.nexttrace import NextTracePredictorConfig
from repro.trace import SelectionConfig, Trace, TraceID

if TYPE_CHECKING:
    from repro.sim.config import FrontendConfig

__all__ = ["BatchPlan", "build_plan", "plan_key"]

#: Next-trace-prediction outcome codes (per occurrence).
NTP_NONE, NTP_CORRECT, NTP_WRONG = 0, 1, 2


@dataclass(frozen=True)
class BatchPlan:
    """Point-independent precomputation for one stream partition."""

    traces: Sequence[Trace]
    selection: SelectionConfig
    predictor: NextTracePredictorConfig
    bimodal_entries: int
    line_bytes: int

    # Per-occurrence features.
    length: list[int]
    n_branches: list[int]
    n_mispredicts: list[int]
    ntp_code: list[int]
    pairs: list[tuple[tuple[int, bool], ...]]
    line_runs: list[tuple[tuple[int, int], ...]]

    # Point-independent NTP totals (identical at every point).
    ntp_none: int
    ntp_correct: int
    ntp_wrong: int

    # Filled by the processor points that run on the plan, and shared by
    # all of them (DESIGN §18): each preprocessed trace's backend
    # template, keyed by trace id, and the table its tuples (and the raw
    # templates' in each trace's memo) are interned through.
    templates: dict = field(default_factory=dict, init=False,
                            compare=False, repr=False)
    interned: dict = field(default_factory=dict, init=False,
                           compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.traces)

    def compatible_with(self, config: "FrontendConfig") -> Optional[str]:
        """Why ``config`` cannot run under this plan (``None`` = fine).

        The plan hard-codes everything point-*independent*; a config is
        batchable iff those knobs match.  Cache sizes, mechanism choice
        and penalties are per-point and unrestricted.
        """
        if config.selection != self.selection:
            return "selection rules differ"
        if config.predictor != self.predictor:
            return "next-trace predictor config differs"
        if config.bimodal_entries != self.bimodal_entries:
            return "bimodal_entries differs"
        if config.icache.line_bytes != self.line_bytes:
            return "icache line_bytes differs"
        return None


def plan_key(config: "FrontendConfig") -> tuple[object, ...]:
    """The point-independent knobs a batch plan is keyed by.

    Config dataclasses are not frozen, so they are flattened with
    :func:`dataclasses.astuple` to make the key hashable.
    """
    return (astuple(config.selection), astuple(config.predictor),
            config.bimodal_entries, config.icache.line_bytes)


def _branch_pairs(trace: Trace) -> tuple[tuple[int, bool], ...]:
    """(pc, taken) per conditional branch of ``trace``."""
    pcs = [pc for pc, inst in zip(trace.pcs, trace.instructions)
           if inst.is_conditional_branch]
    return tuple(zip(pcs, trace.trace_id.outcomes))


def build_plan(traces: Sequence[Trace],
               config: "FrontendConfig") -> BatchPlan:
    """Precompute ``traces``' :class:`BatchPlan` under ``config``'s
    point-independent knobs.

    ``traces`` is the stream's trace partition under
    ``config.selection`` (the runner's stream-cache currency — its
    interned objects stay the identity the trace cache and mechanisms
    key on).
    """
    line_bytes = config.icache.line_bytes
    # Per-occurrence branch pairs and line runs, shared across repeated
    # (interned) trace objects.  Keyed by id(); the stored trace pins it.
    memo: dict[int, tuple[Trace, tuple[tuple[int, bool], ...],
                          tuple[tuple[int, int], ...]]] = {}
    pairs: list[tuple[tuple[int, bool], ...]] = []
    runs: list[tuple[tuple[int, int], ...]] = []
    for trace in traces:
        entry = memo.get(id(trace))
        if entry is None or entry[0] is not trace:
            entry = (trace, _branch_pairs(trace),
                     trace.line_runs(line_bytes))
            memo[id(trace)] = entry
        pairs.append(entry[1])
        runs.append(entry[2])

    # One next-trace-predictor replay: its state is a pure function of
    # the dispatched trace sequence (predict reads, update runs
    # unconditionally per trace), so the per-occurrence outcome is
    # point-independent.
    ntp: NextTracePredictor[TraceID] = NextTracePredictor(config.predictor)
    predict = ntp.predict
    update_ntp = ntp.update
    ntp_code: list[int] = []
    counts = [0, 0, 0]
    for trace in traces:
        trace_id = trace.trace_id
        predicted = predict()
        if predicted is None:
            code = NTP_NONE
        elif predicted == trace_id:
            code = NTP_CORRECT
        else:
            code = NTP_WRONG
        ntp_code.append(code)
        counts[code] += 1
        update_ntp(trace_id, predicted, ends_in_call=trace.ends_in_call,
                   ends_in_return=trace.ends_in_return)

    # One bimodal replay: the table is trained identically at every
    # point (every conditional branch updates it, and the slow path's
    # prediction reads without writing), so the misprediction count a
    # miss at occurrence t would record is point-independent.  Reads
    # happen against the pre-update state — the slow path predicts
    # before the same trace trains.
    bimodal = BimodalPredictor(entries=config.bimodal_entries)
    peek = bimodal.peek
    update_bimodal = bimodal.update
    n_mispredicts: list[int] = []
    for trace_pairs in pairs:
        mispredicted = 0
        for pc, taken in trace_pairs:
            if peek(pc) != taken:
                mispredicted += 1
        n_mispredicts.append(mispredicted)
        for pc, taken in trace_pairs:
            update_bimodal(pc, taken)

    return BatchPlan(
        traces=traces, selection=config.selection,
        predictor=config.predictor,
        bimodal_entries=config.bimodal_entries,
        line_bytes=line_bytes,
        length=[len(trace) for trace in traces],
        n_branches=[len(trace_pairs) for trace_pairs in pairs],
        n_mispredicts=n_mispredicts, ntp_code=ntp_code, pairs=pairs,
        line_runs=runs, ntp_none=counts[NTP_NONE],
        ntp_correct=counts[NTP_CORRECT], ntp_wrong=counts[NTP_WRONG])
