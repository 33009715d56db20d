"""Full trace-processor timing simulation (frontend + backend).

This is the model behind the paper's Figure 6 (speedup from
preconstruction) and Figure 8 (extended pipeline: preconstruction +
preprocessing).  It replays the committed dynamic stream trace by
trace, over the stream partition's shared
:class:`~repro.vector.BatchPlan` (the trace sequence, next-trace
prediction outcomes, slow-path line runs and bimodal mispredictions are
point-independent and computed once per partition), with:

* next-trace prediction gating the fast (trace cache) fetch path;
* slow-path fetch through the shared instruction cache when the
  predictor has no matching prediction or the trace is absent — the
  frontend model's own point and slow path
  (:class:`~repro.sim.frontend_runner.FrontendPoint`);
* mispredict resolution tied to the previous trace's last control
  transfer completing in the backend;
* the dataflow backend of :mod:`repro.processor.backend` (4 PEs,
  2-way in-order issue each, global result buses);
* optional preconstruction, funded by cycles in which the slow path is
  idle (dispatch-to-dispatch span minus slow-path busy time);
* optional fill-unit preprocessing: the backend executes the
  preprocessed *execution view* of each trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.engine import FunctionalEngine, Stream, StreamRecord, as_stream
from repro.frontends import PreconstructionMechanism
from repro.isa import Instruction
from repro.preprocess import Preprocessor
from repro.processor.backend import BackendConfig, BackendModel
from repro.program import ProgramImage
from repro.sim.config import FrontendConfig
from repro.sim.frontend_runner import FrontendPoint
from repro.trace import Trace, TraceID
from repro.vector.plan import NTP_NONE, NTP_WRONG, BatchPlan


@dataclass(frozen=True)
class ProcessorConfig:
    """Frontend + backend + optional preprocessing."""

    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    #: Run every trace through the fill unit's three preprocessing
    #: passes (the extended pipeline of Figure 8).
    preprocess: bool = False


@dataclass
class ProcessorStats:
    """Counters and timing results of a full-processor run."""

    instructions: int = 0
    traces: int = 0
    cycles: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    buffer_hits: int = 0
    slow_path_traces: int = 0
    ntp_correct: int = 0
    ntp_wrong: int = 0
    ntp_none: int = 0
    issue_stalls: int = 0
    idle_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def trace_miss_rate_per_ki(self) -> float:
        return (1000.0 * self.trace_misses / self.instructions
                if self.instructions else 0.0)


@dataclass
class ProcessorResult:
    config: ProcessorConfig
    stats: ProcessorStats
    preconstruction: Optional[PreconstructionMechanism]
    backend: Optional[object] = None


class ProcessorSimulation(FrontendPoint):
    """Cycle-timestamped trace-processor model.

    The frontend point (caches, bimodal table, mechanism, plan set-up
    and slow path) is the one :class:`~repro.sim.FrontendSimulation`
    runs; this model adds the backend and the preprocessed views, and
    drives the mechanism through its ``probe``, ``observe_dispatch``
    and ``tick`` hooks.  Everything point-independent comes from the
    plan :meth:`run` is given.
    """

    stats: ProcessorStats

    def __init__(self, image: ProgramImage, config: ProcessorConfig) -> None:
        super().__init__(image, config.frontend, ProcessorStats())
        self.config = config
        self.backend = BackendModel(config.backend)
        self.preprocessor: Optional[Preprocessor] = (
            Preprocessor() if config.preprocess else None)
        self._views: dict[TraceID, tuple[Instruction, ...]] = {}

    # ------------------------------------------------------------------
    def run(self, stream: Union[Stream, Sequence[StreamRecord]],
            plan: Optional[BatchPlan] = None) -> ProcessorResult:
        """Replay ``stream`` (a :class:`Stream`, or records packed into
        one) through this point.

        ``plan`` is the stream partition's shared precomputation (see
        :meth:`~repro.runner.StreamCache.plan`); without one it is built
        from ``stream`` here.  A simulation replays one stream only.
        """
        stream = as_stream(stream)
        plan = self._plan(stream, plan=plan)
        if sum(plan.length) != len(stream):
            raise ValueError(
                f"plan partitions {sum(plan.length)} instructions but the "
                f"stream has {len(stream)}")
        self._dispatch(plan, stream.mem_addrs)
        return ProcessorResult(config=self.config, stats=self.stats,
                               preconstruction=self.precon,
                               backend=self.backend)

    # ------------------------------------------------------------------
    def _execution_view(self, trace: Trace) -> tuple[Instruction, ...]:
        if self.preprocessor is None:
            return trace.instructions
        view = self._views.get(trace.trace_id)
        if view is None:
            view = self.preprocessor.process(trace)
            self._views[trace.trace_id] = view
        return view

    # ------------------------------------------------------------------
    def _dispatch(self, plan: BatchPlan, addresses: Sequence[int]) -> None:
        """Fetch, dispatch and execute every occurrence of ``plan``."""
        stats = self.stats
        backend_config = self.config.backend
        backend = self.backend
        pe_free = backend.pe_free
        execute = backend.execute_trace
        lookup = self.trace_cache.lookup
        insert = self.trace_cache.insert
        slow_path = self._slow_path
        mechanism = self.mechanism
        redirect_penalty = backend_config.redirect_penalty
        num_pes = backend_config.num_pes
        # The bimodal table's only reader is the preconstruction engine.
        train = self.precon is not None
        bimodal_update = self.bimodal.update

        fetch_free = prev_last_control = prev_retire = prev_dispatch = 0
        pe = 0
        offset = 0
        for t, trace in enumerate(plan.traces):
            trace_id = trace.trace_id
            n = plan.length[t]
            code = plan.ntp_code[t]
            stats.traces += 1
            stats.instructions += n

            present = lookup(trace_id) is not None
            if not present and mechanism is not None:
                present = mechanism.probe(trace_id)
                if present:
                    stats.buffer_hits += 1

            start = fetch_free
            if code == NTP_WRONG:
                # Wrong path fetched; redirect after the previous trace's
                # control transfers resolve in the backend.
                start = max(start, prev_last_control + redirect_penalty)

            slow_busy = 0
            if present:
                stats.trace_hits += 1
            else:
                stats.trace_misses += 1
            if present and code != NTP_NONE:
                # Trace-cache supply (after redirect when mispredicted).
                fetch_done = start + 1
            else:
                # Slow path: no prediction or trace absent.
                slow_busy = slow_path(plan, t)
                fetch_done = start + slow_busy
                if not present and not trace.partial:
                    insert(trace)
            fetch_free = fetch_done

            dispatch = max(fetch_done, pe_free[pe])
            # Known defect, kept for result compatibility: the backend
            # indexes this slice by memory ordinal, but it holds one slot
            # per instruction (0 for non-memory ones), so most memory
            # operations read another instruction's address.
            timing = execute(self._execution_view(trace), dispatch, pe,
                             addresses[offset:offset + n])
            offset += n
            stats.issue_stalls += timing.issue_stalls
            retire = max(timing.done, prev_retire)
            pe_free[pe] = retire
            pe = (pe + 1) % num_pes
            prev_retire = retire
            prev_last_control = timing.last_control

            if mechanism is not None:
                # Slow-path hardware is idle for the remainder of the
                # dispatch-to-dispatch span (including backend-drain time).
                idle = max(0, (dispatch - prev_dispatch) - slow_busy)
                stats.idle_cycles += idle
                mechanism.observe_dispatch(trace)
                if idle:
                    mechanism.tick(idle)
            prev_dispatch = dispatch

            # Train after the tick, as the engine saw the pre-update table.
            if train:
                for branch_pc, taken in plan.pairs[t]:
                    bimodal_update(branch_pc, taken)

        stats.cycles = prev_retire
        stats.ntp_none = plan.ntp_none
        stats.ntp_correct = plan.ntp_correct
        stats.ntp_wrong = plan.ntp_wrong


def run_processor(image: ProgramImage, config: ProcessorConfig,
                  max_instructions: int,
                  stream: Union[Stream, Sequence[StreamRecord], None] = None,
                  plan: Optional[BatchPlan] = None) -> ProcessorResult:
    """Convenience wrapper mirroring :func:`repro.sim.run_frontend`.

    ``plan`` is the partition of the stream's first ``max_instructions``
    records (:meth:`~repro.runner.StreamCache.plan`); it is validated
    against ``config`` and the stream.
    """
    if stream is None:
        stream = FunctionalEngine(image).run(max_instructions)
    else:
        stream = stream[:max_instructions]
    return ProcessorSimulation(image, config).run(stream, plan)
