"""Reproductions of the paper's Figures 5, 6 and 8.

* **Figure 5** — per-benchmark trace-cache miss rate (misses / 1000
  instructions) as a function of combined trace-cache +
  preconstruction-buffer size, one curve per PB size.
* **Figure 6** — overall performance improvement from adding
  preconstruction, for gcc / go / perl / vortex.
* **Figure 8** — the extended pipeline model: speedup of
  preconstruction alone, preprocessing alone, both combined, and the
  sum of the individual speedups (256-entry TC baseline vs 128 TC +
  128 PB for the preconstruction configurations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.charts import bar_chart, series_table
from repro.analysis.sweeps import Figure5Point
from repro.runner import ExperimentSpec, RunResult, resolve_instructions

SPEEDUP_BENCHMARKS = ("gcc", "go", "perl", "vortex")
#: The (TC, PB) entries Figures 6 and 8 compare: a 256-entry trace
#: cache against 128 TC + 128 PB (equal area).
SPEEDUP_BASELINE = (256, 0)
SPEEDUP_PRECON = (128, 128)


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def figure5_series(points: list[Figure5Point]
                   ) -> tuple[list[int], dict[str, list]]:
    """Reshape sweep points into curves keyed by PB size.

    X axis: combined entries (TC+PB).  Each curve holds the miss rate
    at the x positions it covers (``None`` elsewhere), mirroring the
    paper's presentation of miss rate against total area.
    """
    xs = sorted({p.total_entries for p in points})
    curves: dict[str, list] = {}
    for point in points:
        name = (f"pb{point.pb_entries}" if point.pb_entries else "tc-only")
        curve = curves.setdefault(name, [None] * len(xs))
        curve[xs.index(point.total_entries)] = point.miss_per_ki
    return xs, curves


def format_figure5(benchmark: str, points: list[Figure5Point]) -> str:
    xs, curves = figure5_series(points)
    return series_table(
        "entries", xs, curves,
        title=(f"Figure 5 [{benchmark}]: trace-cache misses per 1000 "
               f"instructions vs combined TC+PB entries"))


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
@dataclass
class SpeedupResult:
    benchmark: str
    base_cycles: int
    precon_cycles: int

    @property
    def speedup_percent(self) -> float:
        return 100.0 * (self.base_cycles / self.precon_cycles - 1.0)


def figure6_specs(instructions: Optional[int] = None,
                  benchmarks=SPEEDUP_BENCHMARKS) -> list[ExperimentSpec]:
    """The (baseline, preconstruction) processor pair per benchmark."""
    budget = resolve_instructions(instructions)
    return [ExperimentSpec(benchmark=benchmark, tc_entries=tc, pb_entries=pb,
                           kind="processor", instructions=budget)
            for benchmark in benchmarks
            for tc, pb in (SPEEDUP_BASELINE, SPEEDUP_PRECON)]


def figure6_from_results(results: Sequence[RunResult]) -> list[SpeedupResult]:
    """Assemble runner results (in :func:`figure6_specs` order)."""
    pairs = iter(results)
    return [SpeedupResult(base.spec.benchmark, base.metrics["cycles"],
                          pre.metrics["cycles"])
            for base, pre in zip(pairs, pairs)]


def format_figure6(results: list[SpeedupResult]) -> str:
    return bar_chart(
        {r.benchmark: r.speedup_percent for r in results}, unit="%",
        title="Figure 6: performance improvement from preconstruction")


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
@dataclass
class ExtendedPipelineResult:
    """The four bars of Figure 8 for one benchmark."""

    benchmark: str
    base_cycles: int
    precon_cycles: int
    preproc_cycles: int
    combined_cycles: int

    def _speedup(self, cycles: int) -> float:
        return 100.0 * (self.base_cycles / cycles - 1.0)

    @property
    def precon_percent(self) -> float:
        return self._speedup(self.precon_cycles)

    @property
    def preproc_percent(self) -> float:
        return self._speedup(self.preproc_cycles)

    @property
    def combined_percent(self) -> float:
        return self._speedup(self.combined_cycles)

    @property
    def sum_percent(self) -> float:
        return self.precon_percent + self.preproc_percent

    @property
    def synergy(self) -> float:
        """Combined minus sum — positive when greater than the parts."""
        return self.combined_percent - self.sum_percent


def figure8_specs(instructions: Optional[int] = None,
                  benchmarks=SPEEDUP_BENCHMARKS) -> list[ExperimentSpec]:
    """The four Figure 8 configurations per benchmark, as specs."""
    budget = resolve_instructions(instructions)
    specs = []
    for benchmark in benchmarks:
        for preprocess in (False, True):
            for tc, pb in (SPEEDUP_BASELINE, SPEEDUP_PRECON):
                specs.append(ExperimentSpec(
                    benchmark=benchmark, tc_entries=tc, pb_entries=pb,
                    preprocess=preprocess, kind="processor",
                    instructions=budget))
    return specs


def figure8_from_results(results: Sequence[RunResult]
                         ) -> list[ExtendedPipelineResult]:
    """Assemble runner results (in :func:`figure8_specs` order)."""
    quads = iter(results)
    assembled = []
    for base, pre, prep, both in zip(quads, quads, quads, quads):
        assembled.append(ExtendedPipelineResult(
            benchmark=base.spec.benchmark,
            base_cycles=base.metrics["cycles"],
            precon_cycles=pre.metrics["cycles"],
            preproc_cycles=prep.metrics["cycles"],
            combined_cycles=both.metrics["cycles"]))
    return assembled


def format_figure8(results: list[ExtendedPipelineResult]) -> str:
    lines = ["Figure 8: speedup from the extended pipeline model",
             f"{'bench':10s} {'precon':>8s} {'preproc':>8s} "
             f"{'combined':>9s} {'sum':>8s} {'synergy':>8s}"]
    for r in results:
        lines.append(
            f"{r.benchmark:10s} {r.precon_percent:+7.1f}% "
            f"{r.preproc_percent:+7.1f}% {r.combined_percent:+8.1f}% "
            f"{r.sum_percent:+7.1f}% {r.synergy:+7.1f}%")
    return "\n".join(lines)
