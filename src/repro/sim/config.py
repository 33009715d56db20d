"""Simulation configuration for the trace-processor frontend."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch import NextTracePredictorConfig
from repro.caches import ICacheConfig
from repro.core import PreconstructionConfig
from repro.trace import SelectionConfig, TraceCacheConfig


@dataclass(frozen=True)
class FrontendConfig:
    """Everything the frontend simulation needs.

    ``mechanism_budget`` of ``0`` models the baseline trace processor
    (no fill/prefetch hardware at all), whatever ``mechanism`` names.

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
    preconstruction: PreconstructionConfig = field(
        default_factory=PreconstructionConfig)
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
    #: is the paper's mechanism, whose hardware parameters are
    #: ``preconstruction``.
    mechanism: str = "preconstruction"
    #: The mechanism's storage budget in trace-cache-equivalent 64-byte
    #: entries — preconstruction buffers for the paper's mechanism,
    #: record/request storage for the others, so equal budgets are
    #: equal-area designs.  ``0`` = baseline.
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
