"""Reproductions of the paper's Tables 1-3.

All three tables compare the same two configurations on gcc and go:

* a 512-entry trace cache (no preconstruction), and
* a 256-entry trace cache with a 256-entry preconstruction buffer
  (equal total trace storage).

Table 1 — instructions supplied by the I-cache per 1000 instructions.
Table 2 — I-cache misses per 1000 instructions (preconstruction's
          extra traffic included).
Table 3 — instructions supplied by I-cache *misses* per 1000
          instructions (how exposed the slow path is to miss latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.runner import ExperimentSpec, RunResult, resolve_instructions

TABLE_BENCHMARKS = ("gcc", "go")
BASELINE = (512, 0)
PRECON = (256, 256)


@dataclass
class TableRow:
    """One benchmark's pair of measurements for one table."""

    benchmark: str
    baseline: float
    preconstruction: float

    @property
    def change_percent(self) -> float:
        if self.baseline == 0:
            return 0.0
        return 100.0 * (self.preconstruction - self.baseline) / self.baseline


@dataclass
class TablesResult:
    """All three tables' rows, computed from one pair of runs each."""

    table1: list[TableRow]
    table2: list[TableRow]
    table3: list[TableRow]


def tables_specs(instructions: Optional[int] = None,
                 benchmarks=TABLE_BENCHMARKS) -> list[ExperimentSpec]:
    """The (baseline, preconstruction) spec pair per benchmark."""
    budget = resolve_instructions(instructions)
    specs = []
    for benchmark in benchmarks:
        for tc, pb in (BASELINE, PRECON):
            specs.append(ExperimentSpec(benchmark=benchmark, tc_entries=tc,
                                        pb_entries=pb, instructions=budget))
    return specs


def tables_from_results(results: Sequence[RunResult],
                        benchmarks=TABLE_BENCHMARKS) -> TablesResult:
    """Assemble runner results (in :func:`tables_specs` order)."""
    t1, t2, t3 = [], [], []
    pairs = iter(results)
    for benchmark in benchmarks:
        base, pre = next(pairs).metrics, next(pairs).metrics
        t1.append(TableRow(benchmark, base["icache_instructions_per_ki"],
                           pre["icache_instructions_per_ki"]))
        t2.append(TableRow(benchmark, base["icache_misses_per_ki"],
                           pre["icache_misses_per_ki"]))
        t3.append(TableRow(benchmark, base["icache_miss_instructions_per_ki"],
                           pre["icache_miss_instructions_per_ki"]))
    return TablesResult(table1=t1, table2=t2, table3=t3)


_TITLES = {
    1: "Table 1: Instructions supplied by the I-cache (per 1000 instr)",
    2: "Table 2: I-cache misses (per 1000 instructions)",
    3: "Table 3: Instructions supplied by I-cache misses (per 1000 instr)",
}


def format_table(rows: list[TableRow], number: int) -> str:
    """Render one table in the paper's layout."""
    header = (f"{_TITLES[number]}\n"
              f"{'bench':10s} {'512-entry TC':>14s} "
              f"{'256 TC + 256 PB':>16s} {'change':>9s}")
    lines = [header]
    for row in rows:
        lines.append(f"{row.benchmark:10s} {row.baseline:14.1f} "
                     f"{row.preconstruction:16.1f} "
                     f"{row.change_percent:+8.1f}%")
    return "\n".join(lines)


def format_all_tables(result: TablesResult) -> str:
    return "\n\n".join((
        format_table(result.table1, 1),
        format_table(result.table2, 2),
        format_table(result.table3, 3),
    ))
