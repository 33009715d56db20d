"""Dynamic trace-storage partitioning (the paper's suggested extension).

Paper §5.1: "the benchmark *gcc* sees the most benefit from
incorporating a small preconstruction buffer and allotting most of the
area to the trace cache.  On the other hand, *go* sees the most benefit
from a relatively large preconstruction buffer.  Because of this
behavior either a compromise has to be made, or a design that
dynamically allocates space for the preconstruction buffer may need to
be used.  We do not investigate dynamically partitioning space between
the trace cache and preconstruction buffer, but this could likely be
done."

This module does investigate it.  A fixed total entry budget is split
between the trace cache and the preconstruction buffers; a hill-
climbing controller re-evaluates the split every epoch:

* each epoch records the trace miss rate;
* the controller keeps moving the boundary in the current direction
  while the miss rate improves, and reverses direction when it
  worsens (classic one-dimensional gradient walk);
* repartitioning rebuilds both structures at the new sizes and
  migrates resident traces (a real implementation would flush instead;
  migration models the reserved-ways scheme the paper sketches, where
  entries are re-tagged rather than lost).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.precon_buffers import PreconstructionBuffers
from repro.sim.config import FrontendConfig
from repro.sim.frontend_runner import FrontendSimulation
from repro.program import ProgramImage
from repro.trace import TraceCache, TraceCacheConfig


@dataclass(frozen=True)
class DynamicPartitionConfig:
    """Controller parameters."""

    total_entries: int = 512
    initial_pb_entries: int = 128
    min_pb_entries: int = 32
    max_pb_entries: int = 384
    step_entries: int = 32
    epoch_traces: int = 1500
    hold_tolerance: float = 0.05
    """Relative miss-rate change below which the controller holds the
    current split (repartitioning disturbs indexing and LRU state, so
    it should only happen on a significant gradient)."""

    def __post_init__(self) -> None:
        if not (0 < self.min_pb_entries <= self.initial_pb_entries
                <= self.max_pb_entries < self.total_entries):
            raise ValueError("inconsistent partition bounds")
        if self.step_entries <= 0 or self.epoch_traces <= 0:
            raise ValueError("step/epoch must be positive")
        if self.hold_tolerance < 0:
            raise ValueError("hold_tolerance must be >= 0")


@dataclass
class PartitionEvent:
    """One epoch decision, for inspection and plots."""

    at_traces: int
    pb_entries: int
    epoch_miss_rate: float


class DynamicPartitionFrontend(FrontendSimulation):
    """Frontend simulation with an adaptive TC/PB boundary."""

    def __init__(self, image: ProgramImage, config: FrontendConfig,
                 partition: DynamicPartitionConfig | None = None) -> None:
        if config.preconstruction is None:
            raise ValueError("dynamic partitioning needs the "
                             "preconstruction mechanism with a non-zero "
                             "buffer budget")
        self.partition = partition or DynamicPartitionConfig()
        super().__init__(image, config)
        self._pb_entries = self.partition.initial_pb_entries
        self._direction = +1
        self._epoch_traces = 0
        self._epoch_start_misses = 0
        self._last_epoch_rate: float | None = None
        self.events: list[PartitionEvent] = []
        self._apply_partition(self._pb_entries)

    # ------------------------------------------------------------------
    @property
    def pb_entries(self) -> int:
        return self._pb_entries

    def _apply_partition(self, pb_entries: int) -> None:
        """Rebuild the trace cache and buffers at the new split."""
        tc_entries = self.partition.total_entries - pb_entries
        old_tc = self.trace_cache
        old_buffers = self.precon.buffers

        new_tc = TraceCache(TraceCacheConfig(entries=tc_entries))
        for trace in old_tc.resident_traces():
            new_tc.insert(trace)
        new_buffers = PreconstructionBuffers(
            entries=pb_entries, ways=old_buffers.ways,
            priority_fn=old_buffers.priority_fn)
        for trace, region_seq in old_buffers.resident_with_regions():
            new_buffers.insert(trace, region_seq)

        self.trace_cache = new_tc
        self.precon.trace_cache = new_tc
        self.precon.buffers = new_buffers
        self._pb_entries = pb_entries

    # ------------------------------------------------------------------
    def after_trace(self) -> None:
        """The dispatch loop's per-occurrence hook: count the epoch."""
        self._epoch_traces += 1
        if self._epoch_traces >= self.partition.epoch_traces:
            self._end_epoch()

    def _end_epoch(self) -> None:
        misses = self.stats.trace_misses
        rate = (misses - self._epoch_start_misses) / self._epoch_traces
        move = self._last_epoch_rate is None
        if self._last_epoch_rate is not None:
            delta = rate - self._last_epoch_rate
            band = self.partition.hold_tolerance * self._last_epoch_rate
            if delta > band:
                self._direction = -self._direction  # got worse: reverse
                move = True
            elif delta < -band:
                move = True  # improving: keep walking
            # else: inside the hold band — keep the current split.
        if move:
            proposal = self._pb_entries + self._direction * \
                self.partition.step_entries
            proposal = max(self.partition.min_pb_entries,
                           min(self.partition.max_pb_entries, proposal))
            if proposal != self._pb_entries:
                self._apply_partition(proposal)
        self.events.append(PartitionEvent(
            at_traces=self.stats.traces, pb_entries=self._pb_entries,
            epoch_miss_rate=rate))
        self._last_epoch_rate = rate
        self._epoch_traces = 0
        self._epoch_start_misses = misses

