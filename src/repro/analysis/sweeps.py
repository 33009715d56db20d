"""Sweep drivers: benchmark x configuration grids as spec batches.

Every driver now describes its grid as a list of
:class:`~repro.runner.ExperimentSpec` and delegates execution to
:mod:`repro.runner` — which deduplicates points, serves unchanged ones
from the content-addressed result cache, and fans benchmark groups out
across worker processes (``jobs``).  The ``*_specs`` builders and
``*_points`` assemblers are exposed separately so ``repro all`` can
batch every exhibit's specs through one scheduler pass.

One point runs through :func:`repro.runner.run_point` (or
:func:`~repro.runner.execute_spec`, which bypasses the result cache).

The per-run instruction budget follows one precedence order —
explicit value > ``REPRO_INSTRUCTIONS`` env > built-in default — see
:func:`repro.runner.resolve_instructions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.runner import (
    ExperimentSpec,
    ResultCache,
    RunResult,
    StreamCache,
    resolve_instructions,
    sweep,
)

__all__ = [
    "DYNAMIC_BENCHMARKS", "DYNAMIC_SPLIT", "FIGURE5_PB_SIZES",
    "FIGURE5_TC_SIZES", "Figure5Point", "StreamCache", "dynamic_specs",
    "figure5_points", "figure5_specs", "figure5_sweep",
]


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
@dataclass
class Figure5Point:
    """One point of the Figure 5 curves."""

    benchmark: str
    tc_entries: int
    pb_entries: int
    miss_per_ki: float

    @property
    def total_entries(self) -> int:
        return self.tc_entries + self.pb_entries

    @property
    def total_kbytes(self) -> float:
        return self.total_entries * 64 / 1024


#: Paper §4.1 sweep ranges: TC 64..1024 entries, PB 32..256 entries.
FIGURE5_TC_SIZES = (64, 128, 256, 512, 1024)
FIGURE5_PB_SIZES = (0, 32, 128, 256)


def figure5_specs(benchmark: str, instructions: Optional[int] = None,
                  tc_sizes: Iterable[int] = FIGURE5_TC_SIZES,
                  pb_sizes: Iterable[int] = FIGURE5_PB_SIZES
                  ) -> list[ExperimentSpec]:
    """The Figure 5 grid for one benchmark, as specs."""
    budget = resolve_instructions(instructions)
    return [ExperimentSpec(benchmark=benchmark, tc_entries=tc,
                           pb_entries=pb, instructions=budget)
            for tc in tc_sizes for pb in pb_sizes]


def figure5_points(results: Sequence[RunResult]) -> list[Figure5Point]:
    """Assemble runner results into Figure 5 points."""
    return [Figure5Point(benchmark=r.spec.benchmark,
                         tc_entries=r.spec.tc_entries,
                         pb_entries=r.spec.pb_entries,
                         miss_per_ki=r.metrics["trace_misses_per_ki"])
            for r in results]


def figure5_sweep(cache: StreamCache, benchmark: str,
                  tc_sizes: Iterable[int] = FIGURE5_TC_SIZES,
                  pb_sizes: Iterable[int] = FIGURE5_PB_SIZES, *,
                  jobs: int = 1,
                  result_cache: Optional[ResultCache] = None
                  ) -> list[Figure5Point]:
    """Miss-rate grid for one benchmark (the Figure 5 panel data)."""
    specs = figure5_specs(benchmark, cache.instructions, tc_sizes, pb_sizes)
    return figure5_points(sweep(specs, jobs=jobs, cache=result_cache,
                                stream_cache=cache))


# ----------------------------------------------------------------------
# Dynamic TC/PB partitioning (the paper's §5.1 future work)
# ----------------------------------------------------------------------
DYNAMIC_BENCHMARKS = ("gcc", "go")
#: The static (TC, PB) split the adaptive controller starts from and is
#: compared against.
DYNAMIC_SPLIT = (384, 128)


def dynamic_specs(instructions: Optional[int] = None,
                  benchmarks: Iterable[str] = DYNAMIC_BENCHMARKS
                  ) -> list[ExperimentSpec]:
    """The (static split, adaptive partition) spec pair per benchmark."""
    budget = resolve_instructions(instructions)
    tc, pb = DYNAMIC_SPLIT
    specs = []
    for benchmark in benchmarks:
        static = ExperimentSpec(benchmark=benchmark, tc_entries=tc,
                                pb_entries=pb, instructions=budget)
        specs += [static, static.replace(kind="dynamic")]
    return specs
