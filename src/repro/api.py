"""Stable top-level facade: the one import surface for downstream use.

Instead of importing from five deep modules (``repro.analysis.sweeps``,
``repro.sim.frontend_runner``, ``repro.workloads.spec95``, ...),
downstream code imports everything from here::

    from repro.api import ExperimentSpec, run_point, sweep

    spec = ExperimentSpec(benchmark="gcc", tc_entries=256, pb_entries=256)
    result = run_point(spec)
    print(result.metrics["trace_misses_per_ki"])

The surface, by layer:

* **Experiment description & execution** — :class:`ExperimentSpec`,
  :class:`RunResult`, :func:`run_point`, :func:`sweep`,
  :class:`ExperimentRunner`, :class:`ResultCache`,
  :class:`StreamCache`, :func:`resolve_instructions`;
* **Workloads** — :func:`build_workload`, :data:`SPEC95_NAMES`,
  :class:`WorkloadProfile`, :func:`generate`;
* **Static analysis** — :func:`analyze` (benchmark name in, full
  :class:`StaticAnalysisReport` out), :func:`predict` (benchmark name
  in, :class:`CoveragePrediction` of the trace working set out), plus
  :class:`StaticFacts` / :func:`predict_coverage` for bespoke images;
* **Differential validation** — :func:`check_profile` (oracle verdict
  for one profile), :func:`run_fuzz` (seeded sweep behind
  ``python -m repro fuzz``), :func:`minimize_case` (failure shrinking),
  :func:`oracle_names`;
* **Simulators** (for bespoke studies) — :func:`run_frontend` (the
  unified entry point: the config's ``mechanism`` and
  ``mechanism_budget`` select and size the frontend mechanism,
  ``partition=`` enables the dynamic TC/PB partition) and
  :func:`run_processor` with their configuration types; the shared
  trace-partition plan every frontend point runs on —
  :class:`BatchPlan` / :func:`build_plan` — and
  :func:`run_frontend_batch`, which runs several points over one plan,
  one after another;
* **Frontend-mechanism zoo** — :class:`FrontendMechanism` (the seam
  every competing frontend implements), :class:`MechanismContext`,
  :func:`register_mechanism` / :func:`mechanism_names` /
  :func:`create_mechanism` (the registry), plus the head-to-head
  comparison drivers :func:`compare_sweep`, :func:`compare_specs`,
  :func:`compare_from_results`, :func:`format_compare`,
  :func:`rows_to_dicts` behind ``python -m repro compare``;
* **Observability** — :func:`run_observed` (from
  :mod:`repro.runner`), :class:`ObsBus`, the
  event sinks, :class:`IntervalMetrics`, :func:`build_manifest`,
  :func:`write_perfetto` / :func:`validate_chrome_trace`, and the
  :func:`get_logger` / :func:`configure_logging` logging helpers;
* **Host telemetry** — wall-clock observability of the harness itself:
  :func:`enable_telemetry` / :func:`disable_telemetry` /
  :func:`telemetry_session` / :func:`current_telemetry` manage the
  process-wide :class:`Telemetry` session, :func:`span` traces a
  region, :class:`SpanTracer` / :class:`MetricsRegistry` are the
  underlying stores, :func:`format_span_tree` renders span forests,
  :func:`merged_perfetto_trace` / :func:`write_merged_perfetto` /
  :func:`validate_merged_trace` export host + cycle domains into one
  Perfetto file, and :func:`hotspot_rows` summarizes ``cProfile``
  captures; bench trajectories persist via :func:`append_trajectory` /
  :func:`read_trajectory` / :func:`trajectory_reference` (from
  :mod:`repro.analysis.bench`);
* **Building blocks** (for custom workload scripts) —
  :func:`assemble`, :class:`ProgramImage`, :class:`FunctionalEngine`
  (whose ``run`` returns a struct-of-arrays :class:`Stream`),
  :class:`TraceCache`, :class:`PreconstructionEngine`, ...

Removal policy: a name leaves this surface in the change that deletes
it, with no ``DeprecationWarning`` cycle; CHANGES.md records each
removal, and tests/test_api_surface.py keeps the README's documented
list in step with ``__all__``.
"""

from __future__ import annotations

from repro.analysis import (
    COMPARE_PB_SIZES,
    CompareRow,
    append_trajectory,
    compare_from_results,
    compare_specs,
    compare_sweep,
    compute_tables,
    figure5_sweep,
    figure6,
    figure8,
    format_all_tables,
    format_compare,
    format_figure5,
    format_figure6,
    format_figure8,
    read_trajectory,
    rows_to_dicts,
    trajectory_reference,
)
from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.check import (
    CheckReport,
    FuzzReport,
    MinimizedCase,
    Violation,
    check_profile,
    minimize_case,
    oracle_names,
    run_fuzz,
)
from repro.core import PreconstructionConfig, PreconstructionEngine
from repro.engine import FunctionalEngine, Stream
from repro.frontends import (
    FrontendMechanism,
    MechanismContext,
    create_mechanism,
    mechanism_names,
    register_mechanism,
)
from repro.isa import assemble
from repro.obs import (
    IntervalMetrics,
    JsonlSink,
    NullSink,
    ObsBus,
    RingBufferSink,
    build_manifest,
    configure_logging,
    get_logger,
    validate_chrome_trace,
    write_perfetto,
)
from repro.program import ProgramImage
from repro.processor import ProcessorConfig, run_processor
from repro.runner import (
    DEFAULT_INSTRUCTIONS,
    ExperimentRunner,
    ExperimentSpec,
    ObservedRun,
    ResultCache,
    RunResult,
    StreamCache,
    TimingReport,
    build_frontend_config,
    build_processor_config,
    resolve_instructions,
    run_observed,
    run_point,
    sweep,
)
from repro.sim import (
    DynamicPartitionConfig,
    FrontendConfig,
    run_frontend,
)
from repro.static import (
    CoveragePrediction,
    StaticAnalysisReport,
    StaticFacts,
    analyze_image,
    predict_coverage,
)
from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    Telemetry,
    current_telemetry,
    disable_telemetry,
    enable_telemetry,
    format_span_tree,
    hotspot_rows,
    merged_perfetto_trace,
    span,
    telemetry_session,
    validate_merged_trace,
    write_merged_perfetto,
)
from repro.trace import TraceCache, traces_of_stream
from repro.triage import (
    DiffResult,
    Hypothesis,
    RunCapture,
    capture_spec,
    diff_runs,
    diff_specs,
    load_capture,
    rank_hypotheses,
    render_report,
    write_report,
)
from repro.vector import BatchPlan, build_plan, run_frontend_batch
from repro.workloads import (
    SPEC95_NAMES,
    WorkloadProfile,
    build_workload,
    fuzz_profile,
    generate,
    profile_for,
)


def analyze(benchmark: str, *,
            workload_seed: int | None = None) -> StaticAnalysisReport:
    """Static analysis + lint report for a named benchmark.

    Builds the workload (honouring ``workload_seed``) and runs the
    whole static pipeline — CFG recovery, dominators/loops, call graph,
    verifier, region seeding — the engine behind
    ``python -m repro analyze``.
    """
    workload = build_workload(benchmark, seed=workload_seed)
    return analyze_image(workload.image, intents=workload.branch_intents,
                         name=benchmark)


def predict(benchmark: str, *,
            workload_seed: int | None = None) -> CoveragePrediction:
    """Static trace-coverage prediction for a named benchmark.

    Builds the workload and statically delimits every trace the fill
    unit can construct (§3.2) under the default selection rules — the
    engine behind ``python -m repro predict``.  The prediction's
    containment guarantee (every dynamic trace start and committed pc
    is predicted) is what the ``coverage`` oracle asserts.
    """
    workload = build_workload(benchmark, seed=workload_seed)
    return predict_coverage(workload.image)


# Sorted alphabetically (ASCII order); tests/test_api_surface.py keeps
# this list in lockstep with the README's documented surface.
__all__ = [
    "BatchPlan",
    "BimodalPredictor",
    "COMPARE_PB_SIZES",
    "CheckReport",
    "CompareRow",
    "CoveragePrediction",
    "DEFAULT_INSTRUCTIONS",
    "DiffResult",
    "DynamicPartitionConfig",
    "ExperimentRunner",
    "ExperimentSpec",
    "FrontendConfig",
    "FrontendMechanism",
    "FunctionalEngine",
    "FuzzReport",
    "Hypothesis",
    "InstructionCache",
    "IntervalMetrics",
    "JsonlSink",
    "MechanismContext",
    "MetricsRegistry",
    "MinimizedCase",
    "NullSink",
    "ObsBus",
    "ObservedRun",
    "PreconstructionConfig",
    "PreconstructionEngine",
    "ProcessorConfig",
    "ProgramImage",
    "ResultCache",
    "RingBufferSink",
    "RunCapture",
    "RunResult",
    "SPEC95_NAMES",
    "SpanTracer",
    "StaticAnalysisReport",
    "StaticFacts",
    "Stream",
    "StreamCache",
    "Telemetry",
    "TimingReport",
    "TraceCache",
    "Violation",
    "WorkloadProfile",
    "analyze",
    "analyze_image",
    "append_trajectory",
    "assemble",
    "build_frontend_config",
    "build_manifest",
    "build_plan",
    "build_processor_config",
    "build_workload",
    "capture_spec",
    "check_profile",
    "compare_from_results",
    "compare_specs",
    "compare_sweep",
    "compute_tables",
    "configure_logging",
    "create_mechanism",
    "current_telemetry",
    "diff_runs",
    "diff_specs",
    "disable_telemetry",
    "enable_telemetry",
    "figure5_sweep",
    "figure6",
    "figure8",
    "format_all_tables",
    "format_compare",
    "format_figure5",
    "format_figure6",
    "format_figure8",
    "format_span_tree",
    "fuzz_profile",
    "generate",
    "get_logger",
    "hotspot_rows",
    "load_capture",
    "mechanism_names",
    "merged_perfetto_trace",
    "minimize_case",
    "oracle_names",
    "predict",
    "predict_coverage",
    "profile_for",
    "rank_hypotheses",
    "read_trajectory",
    "register_mechanism",
    "render_report",
    "resolve_instructions",
    "rows_to_dicts",
    "run_frontend",
    "run_frontend_batch",
    "run_fuzz",
    "run_observed",
    "run_point",
    "run_processor",
    "span",
    "sweep",
    "telemetry_session",
    "traces_of_stream",
    "trajectory_reference",
    "validate_chrome_trace",
    "validate_merged_trace",
    "write_merged_perfetto",
    "write_perfetto",
    "write_report",
]
