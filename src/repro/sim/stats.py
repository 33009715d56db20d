"""Frontend simulation statistics and the paper's derived metrics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FrontendStats:
    """Raw counters accumulated by the frontend simulation."""

    instructions: int = 0
    traces: int = 0
    cycles: int = 0

    # Trace supply path
    trace_hits: int = 0              # needed trace present (TC or buffers)
    trace_misses: int = 0            # needed trace absent -> slow path build
    buffer_hits: int = 0             # subset of trace_hits found in buffers
    slow_path_traces: int = 0        # traces supplied via the slow path

    # Next-trace predictor
    ntp_correct: int = 0
    ntp_wrong: int = 0
    ntp_none: int = 0

    # Slow-path instruction supply (Table 1/3 numerators)
    slow_instructions: int = 0
    slow_instructions_from_misses: int = 0
    slow_line_accesses: int = 0
    slow_line_misses: int = 0

    # Preconstruction-side I-cache traffic (Table 2 includes these)
    precon_line_accesses: int = 0
    precon_line_misses: int = 0

    # Bimodal predictor (slow-path)
    bimodal_predictions: int = 0
    bimodal_mispredictions: int = 0

    # Idle-cycle accounting fed to the preconstruction engine
    idle_cycles: int = 0

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    def _per_ki(self, value: float) -> float:
        return 1000.0 * value / self.instructions if self.instructions else 0.0

    @property
    def trace_miss_rate_per_ki(self) -> float:
        """Figure 5's y-axis: trace cache misses per 1000 instructions."""
        return self._per_ki(self.trace_misses)

    @property
    def icache_instructions_per_ki(self) -> float:
        """Table 1: instructions supplied by the I-cache per 1000."""
        return self._per_ki(self.slow_instructions)

    @property
    def icache_misses_per_ki(self) -> float:
        """Table 2: I-cache misses per 1000 instructions (all clients,
        including preconstruction-generated misses)."""
        return self._per_ki(self.slow_line_misses + self.precon_line_misses)

    @property
    def icache_miss_instructions_per_ki(self) -> float:
        """Table 3: instructions supplied by I-cache misses per 1000."""
        return self._per_ki(self.slow_instructions_from_misses)

    @property
    def ntp_accuracy(self) -> float:
        total = self.ntp_correct + self.ntp_wrong + self.ntp_none
        return self.ntp_correct / total if total else 0.0

    @property
    def trace_hit_fraction(self) -> float:
        total = self.trace_hits + self.trace_misses
        return self.trace_hits / total if total else 0.0

    @property
    def fetch_ipc(self) -> float:
        """Instructions supplied per frontend cycle (frontend-only pace)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def summary(self) -> dict[str, float]:
        """Flat dict of the headline metrics (for reports/tests)."""
        return {
            "instructions": self.instructions,
            "traces": self.traces,
            "cycles": self.cycles,
            "trace_misses_per_ki": self.trace_miss_rate_per_ki,
            "icache_instructions_per_ki": self.icache_instructions_per_ki,
            "icache_misses_per_ki": self.icache_misses_per_ki,
            "icache_miss_instructions_per_ki":
                self.icache_miss_instructions_per_ki,
            "ntp_accuracy": self.ntp_accuracy,
            "trace_hit_fraction": self.trace_hit_fraction,
            "buffer_hits": self.buffer_hits,
        }
