"""Experiment analysis: sweeps, table/figure reproductions, charts.

Execution is delegated to :mod:`repro.runner` — every driver describes
its grid as :class:`~repro.runner.ExperimentSpec` batches, so exhibit
regeneration parallelises (``jobs``) and caches (``result_cache``)
uniformly.  The ``*_specs`` / ``*_from_results`` pairs let callers
(notably ``repro all``) batch several exhibits through one scheduler.
A point's record is the runner's :class:`~repro.runner.RunResult`.

:mod:`repro.analysis.bench` is the ``repro bench`` driver: it times
the Figure-5 and Tables sweeps cold and keeps the
``BENCH_trajectory.jsonl`` history.
"""

from repro.analysis.bench import (
    TRAJECTORY_FILE,
    append_trajectory,
    bench_sections,
    check_bench,
    format_bench,
    read_trajectory,
    run_bench,
    trajectory_reference,
    write_bench_report,
)
from repro.analysis.charts import bar_chart, series_table
from repro.analysis.compare import (
    COMPARE_PB_SIZES,
    CompareRow,
    compare_from_results,
    compare_specs,
    compare_sweep,
    format_compare,
    rows_to_dicts,
)
from repro.analysis.figures import (
    ExtendedPipelineResult,
    SpeedupResult,
    figure5_series,
    figure6,
    figure6_from_results,
    figure6_specs,
    figure8,
    figure8_from_results,
    figure8_specs,
    format_figure5,
    format_figure6,
    format_figure8,
)
from repro.analysis.sweeps import (
    DYNAMIC_BENCHMARKS,
    DYNAMIC_SPLIT,
    FIGURE5_PB_SIZES,
    FIGURE5_TC_SIZES,
    Figure5Point,
    StreamCache,
    dynamic_specs,
    figure5_points,
    figure5_specs,
    figure5_sweep,
)
from repro.analysis.tables import (
    TableRow,
    TablesResult,
    compute_tables,
    format_all_tables,
    format_table,
    tables_from_results,
    tables_specs,
)

__all__ = [
    "TRAJECTORY_FILE", "append_trajectory", "bench_sections",
    "check_bench", "format_bench", "read_trajectory", "run_bench",
    "trajectory_reference", "write_bench_report",
    "bar_chart", "series_table", "ExtendedPipelineResult", "SpeedupResult",
    "figure5_series", "figure6", "figure6_from_results", "figure6_specs",
    "figure8", "figure8_from_results", "figure8_specs", "format_figure5",
    "format_figure6", "format_figure8", "DYNAMIC_BENCHMARKS",
    "DYNAMIC_SPLIT", "FIGURE5_PB_SIZES", "FIGURE5_TC_SIZES",
    "Figure5Point", "StreamCache", "dynamic_specs", "figure5_points",
    "figure5_specs", "figure5_sweep",
    "COMPARE_PB_SIZES", "CompareRow", "compare_from_results",
    "compare_specs", "compare_sweep", "format_compare", "rows_to_dicts",
    "TableRow", "TablesResult", "compute_tables", "format_all_tables",
    "format_table", "tables_from_results", "tables_specs",
]
