"""The paper's exhibits, as one table.

An :class:`Exhibit` is what ``repro <name>`` regenerates: the
benchmarks it covers by default, the specs it runs on a given budget
and benchmark set, and how their results render.  ``repro <exhibit>``,
``repro all``, ``repro bench`` and ``tests/test_paper_claims.py`` all
read :data:`EXHIBITS`, so an exhibit's grid and layout are written once.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from repro.analysis.figures import (
    SPEEDUP_BENCHMARKS,
    figure6_from_results,
    figure6_specs,
    figure8_from_results,
    figure8_specs,
    format_figure5,
    format_figure6,
    format_figure8,
)
from repro.analysis.sweeps import (
    DYNAMIC_BENCHMARKS,
    dynamic_specs,
    figure5_points,
    figure5_specs,
    format_dynamic,
)
from repro.analysis.tables import (
    TABLE_BENCHMARKS,
    format_all_tables,
    tables_from_results,
    tables_specs,
)
from repro.runner import ExperimentSpec, RunResult
from repro.workloads import SPEC95_NAMES

__all__ = ["EXHIBITS", "Exhibit"]


class Exhibit(NamedTuple):
    """One paper exhibit.

    ``specs(instructions, benchmarks)`` is its grid on a budget and a
    benchmark set; ``render(results, benchmarks)`` turns that grid's
    results, in spec order, into the text ``repro <name>`` prints.
    """

    name: str
    help: str
    benchmarks: tuple[str, ...]
    specs: Callable[[int, Sequence[str]], list[ExperimentSpec]]
    render: Callable[[Sequence[RunResult], Sequence[str]], str]


def _figure5_specs(instructions: int, benchmarks: Sequence[str]
                   ) -> list[ExperimentSpec]:
    return [spec for benchmark in benchmarks
            for spec in figure5_specs(benchmark, instructions)]


def _render_figure5(results: Sequence[RunResult],
                    benchmarks: Sequence[str]) -> str:
    points = figure5_points(results)
    return "\n\n".join(
        format_figure5(benchmark,
                       [p for p in points if p.benchmark == benchmark])
        for benchmark in benchmarks)


#: Every exhibit by name, in the order ``repro all`` prints them.
EXHIBITS: dict[str, Exhibit] = {exhibit.name: exhibit for exhibit in (
    Exhibit("figure5", "miss rate vs combined TC+PB size", SPEC95_NAMES,
            _figure5_specs, _render_figure5),
    Exhibit("tables", "Tables 1-3: I-cache traffic", TABLE_BENCHMARKS,
            tables_specs,
            lambda results, benchmarks: format_all_tables(
                tables_from_results(results, benchmarks))),
    Exhibit("figure6", "speedup from preconstruction", SPEEDUP_BENCHMARKS,
            figure6_specs,
            lambda results, _: format_figure6(figure6_from_results(results))),
    Exhibit("figure8", "extended pipeline speedups", SPEEDUP_BENCHMARKS,
            figure8_specs,
            lambda results, _: format_figure8(figure8_from_results(results))),
    Exhibit("dynamic", "dynamic-partition extension experiment",
            DYNAMIC_BENCHMARKS, dynamic_specs,
            lambda results, _: format_dynamic(results)),
)}
