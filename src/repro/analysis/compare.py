"""Head-to-head frontend-mechanism comparison (``repro compare``).

Figure-5-style equal-area sweeps across the competing-frontend zoo:
for each benchmark, one shared baseline point (no mechanism) plus one
point per ``(mechanism, budget)`` at a fixed trace-cache size — the
budget is charged in the same 64-byte-entry currency for every
mechanism, so rows at one budget are equal-area designs.

The interesting asymmetry the table surfaces: preconstruction fills
the *trace cache* ahead of fetch (trace misses drop), while the
prefetcher zoo fills the *instruction cache* (slow-path misses drop
but every trace miss still pays the construction trip).  At repro
scale the 64 KB I-cache also never evicts, so the record-replay
prefetcher — which can only re-fetch lines it has already seen —
saturates at the baseline, exactly the behaviour that motivates
map/preconstruction-style mechanisms for cold code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.frontends import mechanism_names
from repro.runner import (
    ExperimentSpec,
    ResultCache,
    RunResult,
    StreamCache,
    resolve_instructions,
    sweep,
)

__all__ = [
    "COMPARE_PB_SIZES",
    "CompareRow",
    "compare_from_results",
    "compare_specs",
    "compare_sweep",
    "format_compare",
    "rows_to_dicts",
]

#: Mechanism storage budgets swept per mechanism (64-byte entries).
COMPARE_PB_SIZES = (32, 128, 256)

#: Label used for the shared no-mechanism row.
BASELINE = "baseline"

#: Metrics carried per row (column order of the table / JSON).
_METRIC_KEYS = ("trace_misses_per_ki", "icache_misses_per_ki", "cycles",
                "trace_hit_fraction", "buffer_hits")


@dataclass(frozen=True)
class CompareRow:
    """One mechanism/budget point of a comparison sweep."""

    benchmark: str
    mechanism: str
    tc_entries: int
    pb_entries: int
    metrics: dict[str, Any]

    @property
    def cycles(self) -> int:
        return int(self.metrics["cycles"])


def _resolve_mechanisms(mechanisms: Optional[Sequence[str]]
                        ) -> tuple[str, ...]:
    if mechanisms is None:
        return mechanism_names()
    unknown = [name for name in mechanisms
               if name not in mechanism_names()]
    if unknown:
        raise ValueError(f"unknown mechanism(s) {unknown}; "
                         f"choose from {mechanism_names()}")
    return tuple(dict.fromkeys(mechanisms))


def compare_specs(benchmark: str,
                  mechanisms: Optional[Sequence[str]] = None,
                  tc_entries: int = 256,
                  pb_sizes: Iterable[int] = COMPARE_PB_SIZES,
                  instructions: Optional[int] = None
                  ) -> list[ExperimentSpec]:
    """The comparison grid for one benchmark, as specs.

    First spec is the shared baseline (budget 0 — every mechanism
    degenerates to the bare frontend there, so one point serves all);
    then one spec per ``(mechanism, budget)``.
    """
    budget = resolve_instructions(instructions)
    specs = [ExperimentSpec(benchmark=benchmark, tc_entries=tc_entries,
                            pb_entries=0, instructions=budget)]
    for mechanism in _resolve_mechanisms(mechanisms):
        for pb in pb_sizes:
            specs.append(ExperimentSpec(
                benchmark=benchmark, tc_entries=tc_entries, pb_entries=pb,
                mechanism=mechanism, instructions=budget))
    return specs


def compare_from_results(results: Sequence[RunResult]) -> list[CompareRow]:
    """Assemble runner results into comparison rows.

    The baseline rows (``pb_entries == 0``) are relabelled
    ``"baseline"`` — with a zero budget the mechanism field is inert.
    """
    rows = []
    for result in results:
        spec = result.spec
        mechanism = spec.mechanism if spec.pb_entries else BASELINE
        rows.append(CompareRow(
            benchmark=spec.benchmark, mechanism=mechanism,
            tc_entries=spec.tc_entries, pb_entries=spec.pb_entries,
            metrics={key: result.metrics[key] for key in _METRIC_KEYS
                     if key in result.metrics}))
    return rows


def rows_to_dicts(rows: Sequence[CompareRow]) -> list[dict[str, Any]]:
    """JSON-serialisable form of ``rows`` (the ``--json`` payload)."""
    return [{"benchmark": row.benchmark, "mechanism": row.mechanism,
             "tc_entries": row.tc_entries, "pb_entries": row.pb_entries,
             **row.metrics} for row in rows]


def format_compare(rows: Sequence[CompareRow],
                   instructions: Optional[int] = None) -> str:
    """Render comparison rows as one table per benchmark.

    ``vs-base`` is the cycle count relative to the benchmark's shared
    baseline row (< 1.0 means the mechanism sped the frontend up).
    """
    lines: list[str] = []
    benchmarks = list(dict.fromkeys(row.benchmark for row in rows))
    for benchmark in benchmarks:
        bench_rows = [row for row in rows if row.benchmark == benchmark]
        baseline = next((row for row in bench_rows
                         if row.mechanism == BASELINE), None)
        if lines:
            lines.append("")
        header = f"{benchmark} (tc={bench_rows[0].tc_entries}"
        if instructions is not None:
            header += f", {instructions} instructions"
        lines.append(header + ")")
        lines.append(f"{'mechanism':<16} {'budget':>6} {'t$miss/ki':>10} "
                     f"{'i$miss/ki':>10} {'cycles':>8} {'hit%':>6} "
                     f"{'bufhits':>8} {'vs-base':>8}")
        for row in bench_rows:
            metrics = row.metrics
            ratio = (row.cycles / baseline.cycles
                     if baseline is not None and baseline.cycles else
                     float("nan"))
            lines.append(
                f"{row.mechanism:<16} {row.pb_entries:>6} "
                f"{metrics['trace_misses_per_ki']:>10.2f} "
                f"{metrics['icache_misses_per_ki']:>10.2f} "
                f"{row.cycles:>8} "
                f"{100 * metrics['trace_hit_fraction']:>5.1f}% "
                f"{metrics['buffer_hits']:>8} "
                f"{ratio:>8.3f}")
    return "\n".join(lines)


def compare_sweep(benchmarks: Sequence[str],
                  mechanisms: Optional[Sequence[str]] = None,
                  tc_entries: int = 256,
                  pb_sizes: Iterable[int] = COMPARE_PB_SIZES,
                  instructions: Optional[int] = None, *,
                  jobs: int = 1,
                  result_cache: Optional[ResultCache] = None,
                  stream_cache: Optional[StreamCache] = None,
                  progress: Any = None) -> list[CompareRow]:
    """Run the full head-to-head comparison across ``benchmarks``."""
    pb_sizes = tuple(pb_sizes)
    specs: list[ExperimentSpec] = []
    for benchmark in benchmarks:
        specs.extend(compare_specs(benchmark, mechanisms, tc_entries,
                                   pb_sizes, instructions))
    results = sweep(specs, jobs=jobs, cache=result_cache,
                    stream_cache=stream_cache, progress=progress)
    return compare_from_results(results)
