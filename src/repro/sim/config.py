"""Simulation configuration for the trace-processor frontend."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.branch import NextTracePredictorConfig
from repro.caches import ICacheConfig
from repro.core import PreconstructionConfig
from repro.trace import SelectionConfig, TraceCacheConfig


@dataclass(frozen=True)
class FrontendConfig:
    """Everything the frontend simulation needs.

    ``preconstruction`` of ``None`` models the baseline trace processor
    (no preconstruction hardware at all).

    The trace-driven timing approximation (see DESIGN.md) is controlled
    by three knobs:

    * ``fetch_width`` — slow-path instructions fetched per cycle (4);
    * ``retire_ipc`` — sustained backend consumption rate, which paces
      the frontend on trace-cache hits and thereby determines how many
      *idle* slow-path cycles the preconstruction engine receives;
    * ``trace_mispredict_penalty`` / ``branch_mispredict_penalty`` —
      resolution latencies charged for wrong next-trace predictions and
      slow-path bimodal mispredictions.
    """

    trace_cache: TraceCacheConfig = field(default_factory=TraceCacheConfig)
    preconstruction: Optional[PreconstructionConfig] = None
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    icache: ICacheConfig = field(default_factory=ICacheConfig)
    predictor: NextTracePredictorConfig = field(
        default_factory=NextTracePredictorConfig)
    bimodal_entries: int = 4096
    fetch_width: int = 4
    retire_ipc: float = 2.5
    trace_mispredict_penalty: int = 8
    branch_mispredict_penalty: int = 6
    #: Prime the preconstruction start-point stack with statically
    #: computed region start points (call returns + loop exits from
    #: :func:`repro.static.compute_static_seeds`) instead of relying
    #: solely on dynamic dispatch cues.  Ignored for the baseline.
    static_seed: bool = False
    #: Which frontend fill/prefetch mechanism occupies the seam
    #: (:mod:`repro.frontends` registry name).  ``"preconstruction"``
    #: keeps the paper's mechanism, configured via ``preconstruction``;
    #: any other name is configured via ``mechanism_budget``.
    mechanism: str = "preconstruction"
    #: Storage budget for a non-preconstruction mechanism, in
    #: trace-cache-equivalent 64-byte entries (the same area currency
    #: as ``preconstruction.buffer_entries``).  ``0`` = baseline.
    mechanism_budget: int = 0

    def __post_init__(self) -> None:
        if self.fetch_width <= 0:
            raise ValueError("fetch_width must be positive")
        if self.retire_ipc <= 0:
            raise ValueError("retire_ipc must be positive")
        if not self.mechanism:
            raise ValueError("mechanism must be a non-empty name")
        if self.mechanism_budget < 0:
            raise ValueError("mechanism_budget must be non-negative")
        if self.mechanism == "preconstruction" and self.mechanism_budget:
            raise ValueError("preconstruction sizes its storage via "
                             "preconstruction.buffer_entries, not "
                             "mechanism_budget")
        if self.mechanism != "preconstruction" \
                and self.preconstruction is not None:
            raise ValueError(f"mechanism {self.mechanism!r} cannot carry "
                             "a preconstruction config")

    @property
    def mechanism_entries(self) -> int:
        """Mechanism-side storage, in 64-byte entries (any mechanism)."""
        if self.preconstruction is not None:
            return self.preconstruction.buffer_entries
        return self.mechanism_budget

    def with_mechanism(self, mechanism: str) -> "FrontendConfig":
        """This sizing point under a different mechanism.

        The storage budget moves with the mechanism: preconstruction
        carries it in ``preconstruction.buffer_entries``, every other
        mechanism in ``mechanism_budget`` — same area either way.
        """
        if mechanism == self.mechanism:
            return self
        budget = self.mechanism_entries
        if mechanism == "preconstruction":
            from repro.core import PreconstructionConfig
            precon = (PreconstructionConfig(buffer_entries=budget)
                      if budget else None)
            return replace(self, mechanism=mechanism, mechanism_budget=0,
                           preconstruction=precon)
        return replace(self, mechanism=mechanism, mechanism_budget=budget,
                       preconstruction=None)

    @property
    def total_trace_storage_bytes(self) -> int:
        """Combined trace cache + mechanism storage area (the x-axis
        of the paper's Figure 5, equal-area across mechanisms)."""
        from repro.trace.trace_cache import BYTES_PER_ENTRY
        return (self.trace_cache.size_bytes
                + self.mechanism_entries * BYTES_PER_ENTRY)

    @property
    def total_trace_entries(self) -> int:
        return self.trace_cache.entries + self.mechanism_entries
