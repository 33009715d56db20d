"""Parallel experiment runner: specs, result cache, process pool.

* :mod:`repro.runner.spec` — :class:`ExperimentSpec` (the frozen,
  hashable currency describing one simulation point) and the
  :class:`RunResult` envelope;
* :mod:`repro.runner.cache` — :class:`ResultCache`, the
  content-addressed on-disk store keyed by
  ``(schema_version, spec digest)``;
* :mod:`repro.runner.pool` — :class:`ExperimentRunner`, grouping jobs
  by benchmark so each worker generates a dynamic stream once, plus the
  :class:`TimingReport` behind ``repro all --timing-report``;
* :mod:`repro.runner.bench` — the seeded hot-path benchmark behind
  ``repro bench`` and its ``BENCH_trajectory.jsonl`` history.
"""

from repro.runner.bench import (
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
from repro.runner.cache import (
    CACHE_DIR_ENV,
    LAST_RUN_FILE,
    ResultCache,
    default_cache_dir,
)
from repro.runner.pool import (
    ExperimentRunner,
    StreamCache,
    TimingReport,
    execute_spec,
    run_point,
    stderr_progress,
    sweep,
)
from repro.runner.spec import (
    DEFAULT_INSTRUCTIONS,
    KINDS,
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    RunResult,
    build_frontend_config,
    build_processor_config,
    resolve_instructions,
)

__all__ = [
    "TRAJECTORY_FILE", "append_trajectory", "bench_sections",
    "check_bench", "format_bench", "read_trajectory", "run_bench",
    "trajectory_reference", "write_bench_report",
    "CACHE_DIR_ENV", "LAST_RUN_FILE", "ResultCache", "default_cache_dir",
    "ExperimentRunner", "StreamCache", "TimingReport", "execute_spec",
    "run_point", "stderr_progress", "sweep",
    "DEFAULT_INSTRUCTIONS", "KINDS", "SPEC_SCHEMA_VERSION",
    "ExperimentSpec", "RunResult", "build_frontend_config",
    "build_processor_config", "resolve_instructions",
]
