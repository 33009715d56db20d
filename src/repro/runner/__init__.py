"""Parallel experiment runner: specs, result cache, process pool.

* :mod:`repro.runner.spec` — :class:`ExperimentSpec` (the frozen,
  hashable currency describing one simulation point) and the
  :class:`RunResult` envelope;
* :mod:`repro.runner.cache` — :class:`ResultCache`, the
  content-addressed on-disk store keyed by
  ``(schema_version, spec digest)``;
* :mod:`repro.runner.pool` — :class:`ExperimentRunner`, grouping jobs
  by benchmark so each worker generates a dynamic stream once, the
  :class:`TimingReport` behind ``repro all --timing-report``, and
  :func:`run_observed`, one frontend point with the event bus attached
  (``repro stats`` / ``repro trace``).

The ``repro bench`` driver times exhibit sweeps, so it lives one layer
up, in :mod:`repro.analysis.bench`.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    LAST_RUN_FILE,
    ResultCache,
    default_cache_dir,
)
from repro.runner.pool import (
    ExperimentRunner,
    ObservedRun,
    StreamCache,
    TimingReport,
    execute_spec,
    run_observed,
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
    "CACHE_DIR_ENV", "LAST_RUN_FILE", "ResultCache", "default_cache_dir",
    "ExperimentRunner", "ObservedRun", "StreamCache", "TimingReport",
    "execute_spec", "run_observed", "run_point", "stderr_progress", "sweep",
    "DEFAULT_INSTRUCTIONS", "KINDS", "SPEC_SCHEMA_VERSION",
    "ExperimentSpec", "RunResult", "build_frontend_config",
    "build_processor_config", "resolve_instructions",
]
