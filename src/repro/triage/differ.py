"""The run differ: localize the first divergence between two runs.

``repro diff`` answers "these two runs disagree — *where first, and
why*?".  The search has three stages, each strictly narrowing:

1. **Aggregate short-circuit** — when both inputs are (or carry)
   :class:`~repro.runner.spec.ExperimentSpec`\\ s, their end-of-run
   metrics are fetched through the :class:`ResultCache` first (a warm
   cache answers without executing anything); equal aggregates from a
   deterministic simulator mean equal runs, and the diff stops there.
2. **Bucket localization** — otherwise both runs are materialized as
   :class:`RunCapture`\\ s (observed executions when needed) and the
   first divergent :class:`~repro.obs.metrics.IntervalMetrics` bucket
   is found by **binary search** over the monotone predicate
   "interval-bucket prefix ``0..k`` is equal" (once a prefix diverges
   it stays divergent), with per-bucket comparisons memoized so the
   probes share work.  This names a cycle window one bucket wide.
3. **Event drill** — the two :class:`~repro.obs.events.ObsBus` streams
   are restricted to that window and compared in order; the first
   differing record names the event, and
   :func:`~repro.triage.hypotheses.rank_hypotheses` turns the bucket's
   counter skews into a ranked suspect list (counter, window, source,
   pc/trace identity).

Captures serialize to a single JSON document (``TRIAGE_SCHEMA``), so a
CI job can pin two golden captures and diff them without a simulator
in the loop.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.obs.metrics import BUCKET_COUNTERS, DEFAULT_BUCKET_CYCLES
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec
from repro.triage.hypotheses import Hypothesis, rank_hypotheses

#: Bump when the capture document layout changes incompatibly.
TRIAGE_SCHEMA = 1


@dataclass
class RunCapture:
    """Everything the differ needs from one run, as plain data.

    ``intervals`` are :meth:`IntervalMetrics.interval_rows` rows,
    ``events`` the full event stream, ``summary`` the end-of-run
    metrics mapping, ``spec`` the originating spec's ``to_dict()``
    payload when the capture came from an execution (``None`` for
    hand-built fixtures).
    """

    label: str
    bucket_cycles: int
    intervals: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    spec: Optional[dict[str, Any]] = None

    def bucket_map(self) -> dict[int, dict[str, Any]]:
        """Bucket index -> interval row."""
        return {int(row["bucket"]): row for row in self.intervals}

    def events_in(self, start: int, end: int) -> list[dict[str, Any]]:
        """Event records with ``start <= cycle < end``, stream order."""
        return [record for record in self.events
                if start <= int(record.get("cycle", -1)) < end]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": TRIAGE_SCHEMA,
            "kind": "triage-capture",
            "label": self.label,
            "bucket_cycles": self.bucket_cycles,
            "intervals": self.intervals,
            "events": self.events,
            "summary": self.summary,
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunCapture":
        return cls(label=str(payload.get("label", "capture")),
                   bucket_cycles=int(payload["bucket_cycles"]),
                   intervals=list(payload.get("intervals", [])),
                   events=list(payload.get("events", [])),
                   summary=dict(payload.get("summary", {})),
                   spec=(dict(payload["spec"])
                         if payload.get("spec") else None))

    def write(self, path: str | Path) -> Path:
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2,
                                     sort_keys=True) + "\n")
        return target


def capture_spec(spec: ExperimentSpec, *,
                 bucket_cycles: int = DEFAULT_BUCKET_CYCLES) -> RunCapture:
    """Execute ``spec`` observed and package the capture."""
    from repro.runner import run_observed
    from repro.telemetry.session import current_telemetry

    tele = current_telemetry()
    context: AbstractContextManager[Any] = (
        tele.span("triage.capture", label=spec.label,
                  bucket_cycles=bucket_cycles)
        if tele else nullcontext())
    with context:
        observed = run_observed(spec, bucket_cycles=bucket_cycles)
    assert observed.metrics is not None
    return RunCapture(label=spec.label, bucket_cycles=bucket_cycles,
                      intervals=observed.metrics.interval_rows(),
                      events=observed.events,
                      summary=dict(observed.result.metrics),
                      spec=spec.to_dict())


def host_evidence() -> list[dict[str, Any]]:
    """Wall-clock span evidence for the diff's cost accounting.

    When a telemetry session is active, the differ's ``DiffResult``
    carries the host-domain spans relevant to triage work —
    ``triage.*`` captures, ``cache.*`` lookups, ``runner.*`` passes —
    so a hypothesis reader can see *what the diff paid for* (cache
    short-circuit vs observed re-execution) alongside the cycle-domain
    findings.  Returns ``[]`` with telemetry off: evidence is strictly
    additive and never changes diff verdicts.
    """
    from repro.telemetry.session import current_telemetry

    tele = current_telemetry()
    if tele is None:
        return []
    rows: list[dict[str, Any]] = []
    for record in tele.tracer.spans():
        name = str(record.get("name", ""))
        if name.startswith(("triage.", "cache.", "runner.")):
            rows.append({"name": name,
                         "dur_us": record.get("dur_us"),
                         "attrs": dict(record.get("attrs", {}))})
    return rows


def _spec_of(payload: Mapping[str, Any]) -> Optional[ExperimentSpec]:
    """The spec a non-capture payload describes, if any.

    Accepts a :class:`RunResult` / cache-entry document (``spec`` key)
    or a bare ``ExperimentSpec.to_dict()`` payload (``benchmark`` key).
    """
    if isinstance(payload.get("spec"), Mapping):
        return ExperimentSpec.from_dict(payload["spec"])
    if "benchmark" in payload:
        known = {"benchmark", "tc_entries", "pb_entries", "static_seed",
                 "preprocess", "kind", "instructions", "workload_seed",
                 "mechanism"}
        fields_only = {key: value for key, value in payload.items()
                       if key in known}
        return ExperimentSpec.from_dict(fields_only)
    return None


def load_capture(path: str | Path, *,
                 bucket_cycles: int = DEFAULT_BUCKET_CYCLES) -> RunCapture:
    """Materialize a capture from any supported run manifest.

    Three input shapes, sniffed from the JSON payload:

    * a **capture** written by :meth:`RunCapture.write` — loaded as-is;
    * a **run manifest** (``RunResult``/cache-entry JSON, carrying a
      ``spec``) — the spec is re-executed observed (aggregates alone
      cannot be drilled);
    * a **bare spec** (``ExperimentSpec.to_dict()``) — executed
      observed.
    """
    document = Path(path)
    payload = json.loads(document.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{document}: not a JSON object")
    if payload.get("kind") == "triage-capture" or (
            "intervals" in payload and "events" in payload):
        return RunCapture.from_dict(payload)
    spec = _spec_of(payload)
    if spec is None:
        raise ValueError(
            f"{document}: not a capture, run manifest, or spec "
            "(expected 'intervals'+'events', 'spec', or 'benchmark')")
    return capture_spec(spec, bucket_cycles=bucket_cycles)


# ----------------------------------------------------------------------
# Localization
# ----------------------------------------------------------------------
def _bucket_counters(row: Optional[Mapping[str, Any]]) -> dict[str, int]:
    """The comparable counter slice of an interval row (missing bucket
    = all zeros: a run that emitted nothing there still has a value)."""
    if row is None:
        return dict.fromkeys(BUCKET_COUNTERS, 0)
    return {name: int(row.get(name, 0)) for name in BUCKET_COUNTERS}


def first_divergent_bucket(a: RunCapture, b: RunCapture) -> Optional[int]:
    """Index of the first bucket whose counters differ, or ``None``.

    Binary search over the monotone predicate *"the bucket prefix
    0..k is equal"*: equality of a prefix can only be lost, never
    regained, as ``k`` grows, so the boundary is the first divergent
    bucket.  Per-bucket equality is memoized — the probes overlap, and
    the memo keeps the total comparison work linear in the worst case
    while typical searches touch ``O(log n)`` fresh buckets.
    """
    map_a, map_b = a.bucket_map(), b.bucket_map()
    indices = sorted(set(map_a) | set(map_b))
    if not indices:
        return None

    equal_memo: dict[int, bool] = {}

    def bucket_equal(position: int) -> bool:
        cached = equal_memo.get(position)
        if cached is None:
            index = indices[position]
            cached = (_bucket_counters(map_a.get(index))
                      == _bucket_counters(map_b.get(index)))
            equal_memo[position] = cached
        return cached

    def prefix_equal(position: int) -> bool:
        return all(bucket_equal(i) for i in range(position + 1))

    if prefix_equal(len(indices) - 1):
        return None
    low, high = 0, len(indices) - 1
    while low < high:
        mid = (low + high) // 2
        if prefix_equal(mid):
            low = mid + 1
        else:
            high = mid
    return indices[low]


@dataclass
class DiffResult:
    """Outcome of one run diff: localization + ranked hypotheses."""

    label_a: str
    label_b: str
    identical: bool
    bucket_cycles: int
    #: First divergent bucket index, or ``None`` (identical intervals).
    bucket: Optional[int] = None
    #: ``[start_cycle, end_cycle)`` of the divergent bucket.
    window: Optional[tuple[int, int]] = None
    #: Differing counters in the divergent bucket: name -> (a, b).
    counters: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: First event record differing inside the window, with the stream
    #: position: ``{"position": i, "a": record|None, "b": record|None}``.
    first_event: Optional[dict[str, Any]] = None
    hypotheses: list[Hypothesis] = field(default_factory=list)
    #: End-of-run aggregates that differ: name -> (a, b).
    summary_deltas: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    #: Observed executions this diff paid for (0 = fully served from
    #: captures / the result cache).
    executed: int = 0
    #: Host-domain span evidence (:func:`host_evidence` rows) — empty
    #: when no telemetry session was active during the diff.
    host: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": TRIAGE_SCHEMA,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "identical": self.identical,
            "bucket_cycles": self.bucket_cycles,
            "bucket": self.bucket,
            "window": list(self.window) if self.window else None,
            "counters": {name: list(pair)
                         for name, pair in self.counters.items()},
            "first_event": self.first_event,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "summary_deltas": {name: list(pair) for name, pair
                               in self.summary_deltas.items()},
            "executed": self.executed,
            "host": self.host,
        }

    def format(self) -> str:
        head = f"diff: {self.label_a}  vs  {self.label_b}"
        if self.identical:
            return f"{head}\nidentical: no divergence found"
        lines = [head]
        if self.bucket is not None and self.window is not None:
            start, end = self.window
            lines.append(f"first divergent bucket: {self.bucket} "
                         f"(cycles [{start}, {end}), "
                         f"bucket width {self.bucket_cycles})")
            for name in sorted(self.counters):
                value_a, value_b = self.counters[name]
                lines.append(f"  {name:20s} {value_a:10d} {value_b:10d} "
                             f"{value_b - value_a:+d}")
        if self.first_event is not None:
            rec_a = self.first_event.get("a")
            rec_b = self.first_event.get("b")

            def show(record: Optional[Mapping[str, Any]]) -> str:
                if record is None:
                    return "(stream ended)"
                return (f"{record.get('source')}/{record.get('event')} "
                        f"@cycle {record.get('cycle')}")

            lines.append(f"first differing event (window position "
                         f"{self.first_event.get('position')}): "
                         f"a={show(rec_a)}  b={show(rec_b)}")
        if self.hypotheses:
            lines.append("hypotheses (most suspect first):")
            lines.extend(f"  {h.rank}. {h.describe()}"
                         for h in self.hypotheses)
        if self.summary_deltas:
            lines.append("end-of-run aggregate deltas:")
            lines.extend(
                f"  {name}: {pair[0]!r} -> {pair[1]!r}"
                for name, pair in sorted(self.summary_deltas.items()))
        if self.host:
            lines.append("host-span evidence (wall-clock):")
            for row in self.host:
                attrs = row.get("attrs") or {}
                detail = " ".join(f"{key}={attrs[key]}"
                                  for key in sorted(attrs))
                lines.append(f"  {row.get('name')}  "
                             f"{row.get('dur_us')}us  {detail}".rstrip())
        return "\n".join(lines)


def _summary_deltas(a: Mapping[str, Any],
                    b: Mapping[str, Any]) -> dict[str, tuple[Any, Any]]:
    deltas: dict[str, tuple[Any, Any]] = {}
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            deltas[name] = (a.get(name), b.get(name))
    return deltas


def diff_runs(a: RunCapture, b: RunCapture) -> DiffResult:
    """Localize the first divergence between two captures."""
    if a.bucket_cycles != b.bucket_cycles:
        raise ValueError(
            f"bucket width mismatch: {a.bucket_cycles} vs "
            f"{b.bucket_cycles} — recapture with a common width")
    result = DiffResult(label_a=a.label, label_b=b.label, identical=True,
                        bucket_cycles=a.bucket_cycles,
                        summary_deltas=_summary_deltas(a.summary, b.summary))
    divergent = first_divergent_bucket(a, b)
    if divergent is None:
        result.identical = not result.summary_deltas
        return result
    result.identical = False
    result.bucket = divergent
    start = divergent * a.bucket_cycles
    end = start + a.bucket_cycles
    result.window = (start, end)
    counters_a = _bucket_counters(a.bucket_map().get(divergent))
    counters_b = _bucket_counters(b.bucket_map().get(divergent))
    result.counters = {name: (counters_a[name], counters_b[name])
                       for name in BUCKET_COUNTERS
                       if counters_a[name] != counters_b[name]}
    events_a = a.events_in(start, end)
    events_b = b.events_in(start, end)
    for position, (rec_a, rec_b) in enumerate(zip(events_a, events_b)):
        key_a = {k: v for k, v in rec_a.items() if k != "seq"}
        key_b = {k: v for k, v in rec_b.items() if k != "seq"}
        if key_a != key_b:
            result.first_event = {"position": position,
                                  "a": rec_a, "b": rec_b}
            break
    else:
        if len(events_a) != len(events_b):
            position = min(len(events_a), len(events_b))
            result.first_event = {
                "position": position,
                "a": events_a[position] if position < len(events_a)
                else None,
                "b": events_b[position] if position < len(events_b)
                else None}
    result.hypotheses = rank_hypotheses(counters_a, counters_b,
                                        (start, end), events_a, events_b)
    return result


def diff_specs(spec_a: ExperimentSpec, spec_b: ExperimentSpec, *,
               cache: Optional[ResultCache] = None,
               bucket_cycles: int = DEFAULT_BUCKET_CYCLES) -> DiffResult:
    """Diff two spec points, executing as little as possible.

    With a ``cache``, both points' end-of-run aggregates come through
    :func:`~repro.runner.pool.run_point` first (warm entries cost no
    execution); equal aggregates from the deterministic simulator mean
    equal runs and the diff returns ``identical`` without paying for
    observed executions.  Only a real disagreement buys the two
    observed runs the bucket search needs.
    """
    from repro.runner import run_point

    if cache is not None:
        result_a = run_point(spec_a, cache=cache)
        result_b = run_point(spec_b, cache=cache)
        executed = ((0 if result_a.cached else 1)
                    + (0 if result_b.cached else 1))
        if result_a.metrics == result_b.metrics:
            return DiffResult(label_a=spec_a.label, label_b=spec_b.label,
                              identical=True, bucket_cycles=bucket_cycles,
                              executed=executed, host=host_evidence())
    else:
        executed = 0
    result = diff_runs(capture_spec(spec_a, bucket_cycles=bucket_cycles),
                       capture_spec(spec_b, bucket_cycles=bucket_cycles))
    result.executed = executed + 2
    result.host = host_evidence()
    return result


def diff_paths(path_a: str | Path, path_b: str | Path, *,
               cache: Optional[ResultCache] = None,
               bucket_cycles: int = DEFAULT_BUCKET_CYCLES) -> DiffResult:
    """Diff two on-disk run documents (the ``repro diff`` engine).

    When *both* documents merely describe specs (run manifests or bare
    spec payloads), the diff routes through :func:`diff_specs` so the
    result cache's aggregates can short-circuit execution; pre-built
    captures are diffed directly.
    """
    payload_a = json.loads(Path(path_a).read_text())
    payload_b = json.loads(Path(path_b).read_text())

    def is_capture(payload: Any) -> bool:
        return isinstance(payload, dict) and (
            payload.get("kind") == "triage-capture"
            or ("intervals" in payload and "events" in payload))

    if not is_capture(payload_a) and not is_capture(payload_b):
        spec_a = _spec_of(payload_a) if isinstance(payload_a, dict) else None
        spec_b = _spec_of(payload_b) if isinstance(payload_b, dict) else None
        if spec_a is not None and spec_b is not None:
            return diff_specs(spec_a, spec_b, cache=cache,
                              bucket_cycles=bucket_cycles)
    capture_a = load_capture(path_a, bucket_cycles=bucket_cycles)
    capture_b = load_capture(path_b, bucket_cycles=bucket_cycles)
    result = diff_runs(capture_a, capture_b)
    result.host = host_evidence()
    return result
