"""Observability layer: cycle-domain event tracing for the simulator.

The paper argues preconstruction with *timelines* — when regions spawn,
how long construction takes, whether traces arrive before the fetch
unit needs them — yet the simulators historically reported only
end-of-run aggregates.  This package adds the missing instrumentation:

* :mod:`repro.obs.events` — :class:`ObsBus`, the cycle-stamped
  structured event bus the engine, preconstruction buffers, trace
  cache and frontend runner emit into.  Instrumentation sites are
  guarded by a monomorphic ``if self.obs:`` check so the hot path pays
  one attribute load + branch when observability is off (the default);
* :mod:`repro.obs.sinks` — pluggable sinks: :class:`NullSink`
  (discard), :class:`JsonlSink` (stream to disk, one JSON object per
  line), :class:`RingBufferSink` (bounded in-memory tail);
* :mod:`repro.obs.metrics` — :class:`IntervalMetrics`, bucketed time
  series of the Figure-5 counters plus histograms (trace length,
  construction latency, buffer occupancy, idle-burst length) and the
  ``metrics.jsonl`` writer;
* :mod:`repro.obs.manifest` — run manifests (spec digest, schema and
  package versions, seed, host info) recorded alongside every
  :class:`~repro.runner.spec.RunResult` and cached entry;
* :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace.json`` export of
  an event stream (``repro trace <bench> --out trace.json``);
* :mod:`repro.obs.log` — stdlib ``logging`` integration: named loggers
  per subsystem and the ``-v``/``--log-level`` CLI plumbing.

One-call observed execution of a frontend point,
:func:`repro.runner.run_observed`, lives with the runner: it shares
the ordinary point executor and only attaches a bus.

Determinism contract: for a fixed spec, the emitted event sequence is
a pure function of the simulation — identical across reruns, across
``PYTHONHASHSEED``, and across serial vs parallel execution.
"""

from repro.obs.events import ObsBus
from repro.obs.log import configure_logging, get_logger
from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest
from repro.obs.metrics import Histogram, IntervalMetrics
from repro.obs.perfetto import (
    perfetto_trace,
    validate_chrome_trace,
    write_perfetto,
)
from repro.obs.sinks import (
    EventSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    write_events_jsonl,
)

__all__ = [
    "ObsBus",
    "EventSink", "NullSink", "JsonlSink", "RingBufferSink",
    "write_events_jsonl",
    "Histogram", "IntervalMetrics",
    "MANIFEST_SCHEMA", "build_manifest",
    "perfetto_trace", "validate_chrome_trace", "write_perfetto",
    "configure_logging", "get_logger",
]
