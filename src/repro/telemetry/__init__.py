"""Host-domain observability: wall-clock spans, metrics, profiles.

The mirror image of :mod:`repro.obs`: where ``obs`` makes the
*simulated machine* observable in the cycle domain, ``telemetry``
makes the *harness that runs it* observable in the wall-clock domain —
the process-pool scheduler, the content-addressed result cache,
workload generation, and every CLI command.

Pieces:

* :mod:`repro.telemetry.spans` — zero-dependency span tracer with
  thread and process propagation (span-context handoff across the
  ``ProcessPoolExecutor`` boundary);
* :mod:`repro.telemetry.registry` — counters/gauges/histograms with
  fixed bucket boundaries, exported as OpenMetrics text and canonical
  sorted-keys JSON;
* :mod:`repro.telemetry.session` — the process-wide on/off switch and
  the ``if self.tele:`` guard discipline (off-cost by default;
  ``repro all`` output is byte-identical either way);
* :mod:`repro.telemetry.perfetto` — merged host+sim Perfetto export
  (host tracks keyed by pid/tid, sim tracks by cycle, one file);
* :mod:`repro.telemetry.profile` — the whole-command ``cProfile``
  capture behind ``repro profile <cmd>``.
"""

from repro.telemetry.perfetto import (
    HOST_PID_BASE,
    host_perfetto_events,
    merged_perfetto_trace,
    validate_merged_trace,
    write_merged_perfetto,
)
from repro.telemetry.profile import (
    DEFAULT_TOP,
    format_hotspots,
    hotspot_rows,
    profile_call,
)
from repro.telemetry.registry import (
    DEFAULT_SECONDS_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics,
)
from repro.telemetry.session import (
    LAST_TELEMETRY_FILE,
    TELEMETRY_SCHEMA,
    Telemetry,
    activate_worker,
    current_telemetry,
    disable_telemetry,
    enable_telemetry,
    format_telemetry,
    load_telemetry,
    span,
    telemetry_session,
    utc_timestamp,
    write_telemetry,
)
from repro.telemetry.spans import SPAN_SCHEMA, SpanTracer, format_span_tree

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_TOP",
    "Gauge",
    "HOST_PID_BASE",
    "Histogram",
    "LAST_TELEMETRY_FILE",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "SPAN_SCHEMA",
    "SpanTracer",
    "TELEMETRY_SCHEMA",
    "Telemetry",
    "activate_worker",
    "current_telemetry",
    "disable_telemetry",
    "enable_telemetry",
    "format_hotspots",
    "format_metrics",
    "format_span_tree",
    "format_telemetry",
    "host_perfetto_events",
    "hotspot_rows",
    "load_telemetry",
    "merged_perfetto_trace",
    "profile_call",
    "span",
    "telemetry_session",
    "utc_timestamp",
    "validate_merged_trace",
    "write_merged_perfetto",
]
