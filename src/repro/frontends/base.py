"""The frontend-mechanism seam: one interface, many prefetchers.

The preconstruction engine occupies a well-defined seam in the
frontend simulation: it observes the retired trace stream, is funded
by the slow path's *idle* cycles, and fills storage (trace cache /
preconstruction buffers / I-cache) ahead of fetch.  The paper's
competition — record-replay instruction prefetching and program-map
traversal fetching — occupies exactly the same seam, so this module
extracts it as an abstract base class and a registry, letting every
mechanism flow through the experiment runner, result cache, obs
manifests and differential-validation oracles unchanged.

Call protocol, per dispatched trace (driven by both dispatch loops,
:class:`repro.sim.frontend_runner.FrontendSimulation` and
:class:`repro.processor.ProcessorSimulation`):

1. :meth:`~FrontendMechanism.probe` on a trace-cache miss — a
   mechanism holding the trace in a side buffer promotes it and
   returns ``True`` (counted as a buffer hit);
2. :meth:`~FrontendMechanism.on_slow_path` just before an absent
   trace is fetched over the slow path (miss-triggered training);
3. :meth:`~FrontendMechanism.observe_dispatch` with the retired
   trace (dispatch-stream monitoring);
4. :meth:`~FrontendMechanism.tick` with the idle slow-path cycles the
   trace left behind — the only budget a mechanism may spend on the
   shared I-cache port.

Import discipline: this package sits *below* :mod:`repro.sim` — it may
import the building blocks (``core``, ``trace``, ``caches``,
``branch``, ``program``, lazily ``static``) but never the simulation
drivers or the experiment runner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Optional, TypeVar

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import PreconstructionConfig
from repro.program import ProgramImage
from repro.trace import SelectionConfig, Trace, TraceCache, TraceID


@dataclass
class MechanismContext:
    """Everything a mechanism may wire itself to at construction time.

    Built by the frontend simulation; carrying the shared structures in
    one bundle keeps mechanism constructors uniform (and keeps this
    package from importing :mod:`repro.sim`).
    """

    image: ProgramImage
    icache: InstructionCache
    bimodal: BimodalPredictor
    trace_cache: TraceCache
    selection: SelectionConfig
    #: Storage budget in trace-cache-equivalent entries (64 bytes each)
    #: — ``FrontendConfig.mechanism_budget``, the one area currency of
    #: every mechanism, so Figure-5-style equal-area comparisons line
    #: up across mechanisms.  ``0`` means the mechanism is unconfigured
    #: (baseline frontend).
    budget_entries: int
    #: Honour ``FrontendConfig.static_seed`` (preconstruction only).
    static_seed: bool
    #: Hardware parameters of the preconstruction mechanism (read by
    #: that mechanism only).
    preconstruction: PreconstructionConfig


class FrontendMechanism(ABC):
    """One competing frontend fill/prefetch mechanism.

    Subclasses set the two class-level names and implement
    :meth:`observe_dispatch`; the remaining hooks default to no-ops so
    a minimal mechanism only reacts to the dispatch stream.
    """

    #: Registry key (``ExperimentSpec.mechanism`` value).
    name: ClassVar[str] = ""
    #: I-cache traffic-accounting client name; the simulation mirrors
    #: this client's counters into ``FrontendStats`` (Table 2).
    icache_client: ClassVar[str] = "preconstruct"

    @classmethod
    @abstractmethod
    def build(cls, context: MechanismContext) -> Optional["FrontendMechanism"]:
        """Construct from ``context``; ``None`` when unconfigured
        (zero budget) — the simulation then runs the bare baseline."""

    def attach_obs(self, bus: Any) -> None:
        """Attach an event bus (:class:`repro.obs.ObsBus`); optional."""

    def probe(self, trace_id: TraceID) -> bool:
        """Trace-cache miss: promote ``trace_id`` from mechanism-side
        storage into the trace cache if held.  ``True`` counts as a
        buffer hit (the dispatch proceeds as a trace-cache hit)."""
        return False

    def on_slow_path(self, trace: Trace) -> None:
        """``trace`` is about to be fetched over the slow path."""

    @abstractmethod
    def observe_dispatch(self, trace: Trace) -> None:
        """``trace`` just dispatched (retired-stream monitoring)."""

    def tick(self, idle_cycles: int) -> None:
        """Spend up to ``idle_cycles`` of idle slow-path time."""


_REGISTRY: dict[str, type[FrontendMechanism]] = {}

M = TypeVar("M", bound=type[FrontendMechanism])


def register_mechanism(cls: M) -> M:
    """Class decorator: add ``cls`` to the mechanism registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"mechanism {cls.name!r} already registered "
                         f"by {existing.__name__}")
    _REGISTRY[cls.name] = cls
    return cls


def mechanism_names() -> tuple[str, ...]:
    """Every registered mechanism name, sorted."""
    return tuple(sorted(_REGISTRY))


def create_mechanism(name: str,
                     context: MechanismContext
                     ) -> Optional[FrontendMechanism]:
    """Instantiate mechanism ``name`` for ``context``.

    Returns ``None`` when the mechanism is unconfigured for this
    context (budget of zero) — the frontend then runs without any fill
    mechanism, which is the baseline trace processor.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(f"unknown frontend mechanism {name!r}; "
                         f"choose from {mechanism_names()}")
    return cls.build(context)


class LinePrefetcher(FrontendMechanism):
    """Shared machinery for the I-cache-side prefetchers.

    The non-preconstruction mechanisms all reduce to: decide *which*
    instruction-cache lines to pull in, queue them, and spend idle
    slow-path cycles issuing one line fetch per cycle on the shared
    I-cache port.  Lines already resident are dropped at issue time
    (the probe is free; the paper's constructors pay the same way).
    """

    def __init__(self, icache: InstructionCache, budget_entries: int) -> None:
        self.icache = icache
        self.budget_entries = budget_entries
        #: Pending line addresses, FIFO in insertion order, deduplicated
        #: by the keys, bounded by the storage budget (the queue is the
        #: mechanism's request table).
        self._queue: dict[int, None] = {}
        self.lines_requested = 0
        self.lines_prefetched = 0

    # ------------------------------------------------------------------
    def enqueue_line(self, line_addr: int) -> None:
        queue = self._queue
        if line_addr in queue or len(queue) >= self.budget_entries:
            return
        self.lines_requested += 1
        queue[line_addr] = None

    def pending(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def tick(self, idle_cycles: int) -> None:
        """One queued line fetch per idle cycle on the I-cache port."""
        queue = self._queue
        issued = 0
        while issued < idle_cycles and queue:
            line_addr = next(iter(queue))
            del queue[line_addr]
            issued += 1
            if self.icache.contains_line(line_addr):
                continue
            self.icache.fetch_line(line_addr, self.icache_client,
                                   instructions=0)
            self.lines_prefetched += 1


__all__ = [
    "FrontendMechanism",
    "LinePrefetcher",
    "MechanismContext",
    "create_mechanism",
    "mechanism_names",
    "register_mechanism",
]
