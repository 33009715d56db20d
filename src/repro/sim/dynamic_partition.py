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

This module does investigate it.  The point's total trace storage —
its trace-cache entries plus its preconstruction budget
(``FrontendConfig.mechanism_budget``), which is also the starting
split — is re-divided between the trace cache and the preconstruction
buffers by a hill-climbing controller every epoch:

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

import math
from dataclasses import dataclass, replace

from repro.core.precon_buffers import PreconstructionBuffers
from repro.sim.config import FrontendConfig
from repro.sim.frontend_runner import FrontendSimulation
from repro.program import ProgramImage
from repro.trace import TraceCache


@dataclass(frozen=True)
class DynamicPartitionConfig:
    """Controller parameters.

    The sizes it partitions come from the point's
    :class:`~repro.sim.FrontendConfig`; these bound and pace the walk.
    """

    min_pb_entries: int = 32
    max_pb_entries: int = 384
    step_entries: int = 32
    epoch_traces: int = 1500
    hold_tolerance: float = 0.05
    """Relative miss-rate change below which the controller holds the
    current split (repartitioning disturbs indexing and LRU state, so
    it should only happen on a significant gradient)."""

    def __post_init__(self) -> None:
        if not 0 < self.min_pb_entries <= self.max_pb_entries:
            raise ValueError("partition bounds need "
                             "0 < min_pb_entries <= max_pb_entries")
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
        if config.mechanism != "preconstruction" \
                or not config.mechanism_budget:
            raise ValueError("dynamic partitioning needs the "
                             "preconstruction mechanism with a non-zero "
                             "buffer budget")
        self.partition = partition or DynamicPartitionConfig()
        self.total_entries = (config.trace_cache.entries
                              + config.mechanism_budget)
        self._check_bounds(config)
        super().__init__(image, config)
        self._pb_entries = config.mechanism_budget
        self._direction = +1
        self._epoch_traces = 0
        self._epoch_start_misses = 0
        self._last_epoch_rate: float | None = None
        self.events: list[PartitionEvent] = []

    def _check_bounds(self, config: FrontendConfig) -> None:
        """``ValueError`` naming the first controller bound that does
        not fit ``config``'s split."""
        bounds = self.partition
        budget = config.mechanism_budget
        if bounds.min_pb_entries > budget:
            raise ValueError(f"min_pb_entries={bounds.min_pb_entries} "
                             f"exceeds the {budget}-entry starting budget")
        if bounds.max_pb_entries < budget:
            raise ValueError(f"max_pb_entries={bounds.max_pb_entries} is "
                             f"below the {budget}-entry starting budget")
        if bounds.max_pb_entries >= self.total_entries:
            raise ValueError(f"max_pb_entries={bounds.max_pb_entries} "
                             "leaves no trace cache out of "
                             f"{self.total_entries} entries")
        # Every reachable split must divide evenly into both structures'
        # ways.
        ways = math.lcm(config.trace_cache.ways,
                        config.preconstruction.buffer_ways)
        for name, moved in (("min_pb_entries", budget - bounds.min_pb_entries),
                            ("max_pb_entries", bounds.max_pb_entries - budget),
                            ("step_entries", bounds.step_entries)):
            if moved % ways:
                raise ValueError(f"{name}={getattr(bounds, name)} moves "
                                 f"the split by {moved} entries, not a "
                                 f"multiple of {ways} ways")

    # ------------------------------------------------------------------
    @property
    def pb_entries(self) -> int:
        return self._pb_entries

    def _apply_partition(self, pb_entries: int) -> None:
        """Rebuild the trace cache and buffers at the new split.

        The trace cache migrates each set oldest first
        (:meth:`TraceCache.resident_traces`), so the new cache starts
        with the same recency order: two traces that share a set before
        and after the move keep their relative LRU position.
        """
        old_tc = self.trace_cache
        old_buffers = self.precon.buffers

        new_tc = TraceCache(replace(
            old_tc.config, entries=self.total_entries - pb_entries))
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

