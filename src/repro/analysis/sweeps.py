"""Frontend spec grids: Figure 5 and the dynamic-partition extension.

Each builder describes its grid as a list of
:class:`~repro.runner.ExperimentSpec`; :mod:`repro.runner` runs it,
deduplicating points, serving unchanged ones from the
content-addressed result cache and fanning benchmark groups out across
worker processes (``jobs``).  :data:`repro.analysis.exhibits.EXHIBITS`
pairs each builder with the renderer of its exhibit.

The per-run instruction budget follows one precedence order —
explicit value > ``REPRO_INSTRUCTIONS`` env > built-in default — see
:func:`repro.runner.resolve_instructions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.runner import (
    ExperimentSpec,
    RunResult,
    StreamCache,
    resolve_instructions,
)

__all__ = [
    "DYNAMIC_BENCHMARKS", "DYNAMIC_SPLIT", "FIGURE5_PB_SIZES",
    "FIGURE5_TC_SIZES", "Figure5Point", "StreamCache", "dynamic_specs",
    "figure5_points", "figure5_specs", "format_dynamic",
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


#: Paper §4.1 sweep ranges: TC 64..1024 entries, PB 32..256 entries.
FIGURE5_TC_SIZES = (64, 128, 256, 512, 1024)
FIGURE5_PB_SIZES = (0, 32, 128, 256)


def figure5_specs(benchmark: str, instructions: Optional[int] = None
                  ) -> list[ExperimentSpec]:
    """The Figure 5 grid for one benchmark, as specs."""
    budget = resolve_instructions(instructions)
    return [ExperimentSpec(benchmark=benchmark, tc_entries=tc,
                           pb_entries=pb, instructions=budget)
            for tc in FIGURE5_TC_SIZES for pb in FIGURE5_PB_SIZES]


def figure5_points(results: Sequence[RunResult]) -> list[Figure5Point]:
    """Assemble runner results into Figure 5 points."""
    return [Figure5Point(benchmark=r.spec.benchmark,
                         tc_entries=r.spec.tc_entries,
                         pb_entries=r.spec.pb_entries,
                         miss_per_ki=r.metrics["trace_misses_per_ki"])
            for r in results]


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


def format_dynamic(results: Sequence[RunResult]) -> str:
    """One line per benchmark from results in :func:`dynamic_specs`
    order: the static split's miss rate against the adaptive one's."""
    tc, pb = DYNAMIC_SPLIT
    lines = []
    pairs = iter(results)
    for static, dynamic in zip(pairs, pairs):
        static_miss = static.metrics["trace_misses_per_ki"]
        moving = dynamic.metrics
        lines.append(
            f"{static.spec.benchmark}: "
            f"static({tc}+{pb})={static_miss:.2f} miss/KI, "
            f"dynamic={moving['trace_misses_per_ki']:.2f} miss/KI, "
            f"trajectory={moving['pb_trajectory']}")
    return "\n".join(lines)
