"""Experiment analysis: the paper's exhibits, their grids and layouts.

:data:`EXHIBITS` is the one table of exhibits: per exhibit, its
default benchmarks, a ``specs`` builder and a ``render`` step.  Callers
run the specs through :mod:`repro.runner` (``sweep`` or
:class:`~repro.runner.ExperimentRunner`) and pass the results, in spec
order, to ``render``; ``repro all`` runs every exhibit's specs in one
scheduler pass.  The ``*_from_results`` assemblers turn the same
results into the typed rows the claims suite checks.

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
from repro.analysis.exhibits import EXHIBITS, Exhibit
from repro.analysis.figures import (
    ExtendedPipelineResult,
    SpeedupResult,
    figure5_series,
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
    DYNAMIC_SPLIT,
    FIGURE5_PB_SIZES,
    FIGURE5_TC_SIZES,
    Figure5Point,
    StreamCache,
    dynamic_specs,
    figure5_points,
    figure5_specs,
    format_dynamic,
)
from repro.analysis.tables import (
    TableRow,
    TablesResult,
    format_all_tables,
    format_table,
    tables_from_results,
    tables_specs,
)

__all__ = [
    "TRAJECTORY_FILE", "append_trajectory", "bench_sections",
    "check_bench", "format_bench", "read_trajectory", "run_bench",
    "trajectory_reference", "write_bench_report",
    "bar_chart", "series_table", "EXHIBITS", "Exhibit",
    "ExtendedPipelineResult", "SpeedupResult", "figure5_series",
    "figure6_from_results", "figure6_specs", "figure8_from_results",
    "figure8_specs", "format_figure5", "format_figure6", "format_figure8",
    "DYNAMIC_BENCHMARKS", "DYNAMIC_SPLIT", "FIGURE5_PB_SIZES",
    "FIGURE5_TC_SIZES", "Figure5Point", "StreamCache", "dynamic_specs",
    "figure5_points", "figure5_specs", "format_dynamic",
    "COMPARE_PB_SIZES", "CompareRow", "compare_from_results",
    "compare_specs", "compare_sweep", "format_compare", "rows_to_dicts",
    "TableRow", "TablesResult", "format_all_tables",
    "format_table", "tables_from_results", "tables_specs",
]
