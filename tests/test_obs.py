"""Tests for the observability layer (:mod:`repro.obs`).

Covers the sink implementations, the event bus, interval metrics and
histograms, run manifests, logging helpers, the Perfetto exporter's
schema, and the determinism contract: for a fixed spec the event
stream is a pure function of the simulation — identical across reruns
and across serial vs parallel observed execution.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.obs import (
    Histogram,
    IntervalMetrics,
    JsonlSink,
    NullSink,
    ObsBus,
    RingBufferSink,
    build_manifest,
    perfetto_trace,
    validate_chrome_trace,
    write_events_jsonl,
)
from repro.obs.log import configure_logging, get_logger, level_from_args
from repro.obs.sinks import read_events_jsonl
from repro.runner import (
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    run_observed,
    run_point,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SPEC = ExperimentSpec(benchmark="compress", tc_entries=256, pb_entries=256,
                      instructions=6000)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_null_sink_discards(self):
        sink = NullSink()
        assert sink.emit({"seq": 1}) is None
        sink.close()  # idempotent, no resource

    def test_ring_buffer_unbounded(self):
        sink = RingBufferSink()
        for i in range(5):
            sink.emit({"seq": i})
        assert len(sink.events) == 5
        assert sink.capacity is None

    def test_ring_buffer_bounded_keeps_tail(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit({"seq": i})
        assert [r["seq"] for r in sink.events] == [7, 8, 9]

    def test_ring_buffer_drain(self):
        sink = RingBufferSink()
        sink.emit({"seq": 1})
        assert sink.drain() == [{"seq": 1}]
        assert not sink.events

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"seq": 1, "cycle": 0, "event": "x"})
            sink.emit({"seq": 2, "cycle": 4, "event": "y"})
            assert sink.emitted == 2
        assert read_events_jsonl(path) == [
            {"seq": 1, "cycle": 0, "event": "x"},
            {"seq": 2, "cycle": 4, "event": "y"},
        ]

    def test_jsonl_is_canonical(self, tmp_path):
        """Key order in the source dict must not affect the bytes."""
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_events_jsonl([{"b": 1, "a": 2}], a)
        write_events_jsonl([{"a": 2, "b": 1}], b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == '{"a":2,"b":1}\n'


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestObsBus:
    def test_stamps_seq_and_cycle(self):
        sink = RingBufferSink()
        bus = ObsBus(sink)
        bus.now = 42
        bus.emit("frontend", "trace_hit", pc=4096)
        bus.emit("frontend", "trace_miss", pc=8192)
        first, second = sink.events
        assert first == {"seq": 1, "cycle": 42, "source": "frontend",
                         "event": "trace_hit", "pc": 4096}
        assert second["seq"] == 2 and second["event"] == "trace_miss"

    def test_defaults_to_null_sink(self):
        bus = ObsBus()
        bus.emit("frontend", "trace_hit")
        assert bus.seq == 1  # counted even when discarded


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_stats(self):
        hist = Histogram("x")
        for value in (4, 4, 8):
            hist.add(value)
        assert hist.total == 3
        assert hist.min == 4 and hist.max == 8
        assert hist.mean == pytest.approx(16 / 3)

    def test_empty(self):
        hist = Histogram("x")
        assert hist.min is None and hist.max is None and hist.mean is None

    def test_to_dict_sorted_string_keys(self):
        hist = Histogram("x")
        hist.add(10)
        hist.add(2)
        assert list(hist.to_dict()["counts"]) == ["2", "10"]


class TestIntervalMetrics:
    def test_bucketing(self):
        metrics = IntervalMetrics(bucket_cycles=100)
        metrics.on_trace(50, length=16, hit=True, buffer_hit=True)
        metrics.on_trace(150, length=8, hit=False, buffer_hit=False)
        metrics.on_idle_burst(120, 30)
        rows = metrics.interval_rows()
        assert [row["bucket"] for row in rows] == [0, 1]
        assert rows[0]["trace_hits"] == 1 and rows[0]["buffer_hits"] == 1
        assert rows[1]["trace_misses"] == 1
        assert rows[1]["idle_cycles"] == 30
        assert rows[1]["trace_misses_per_ki"] == pytest.approx(1000 / 8)

    def test_rejects_bad_bucket_width(self):
        with pytest.raises(ValueError):
            IntervalMetrics(bucket_cycles=0)

    def test_jsonl_layout(self, tmp_path):
        metrics = IntervalMetrics(bucket_cycles=100)
        metrics.on_trace(0, length=4, hit=True, buffer_hit=False)
        path = metrics.write_jsonl(tmp_path / "metrics.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["type"] == "meta"
        assert rows[1]["type"] == "interval"
        assert {row["name"] for row in rows if row["type"] == "histogram"} \
            == {"trace_length", "construction_latency",
                "buffer_occupancy", "idle_burst_length"}


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
class TestManifest:
    def test_fields(self):
        manifest = build_manifest(SPEC)
        assert manifest["spec_digest"] == SPEC.digest()
        assert manifest["benchmark"] == "compress"
        assert manifest["instructions"] == 6000
        assert manifest["schema_version"] == SPEC_SCHEMA_VERSION
        assert "host" in manifest and "created_at" in manifest

    def test_deterministic_subset(self):
        manifest = build_manifest(SPEC, include_host=False)
        assert "host" not in manifest and "created_at" not in manifest
        assert manifest == build_manifest(SPEC, include_host=False)

    def test_attached_to_executed_results(self):
        result = run_point(SPEC.replace(instructions=2000), cache=None)
        assert result.manifest is not None
        assert result.manifest["spec_digest"] == \
            SPEC.replace(instructions=2000).digest()

    def test_survives_cache_roundtrip(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path / "cache")
        spec = SPEC.replace(instructions=2000)
        result = run_point(spec, cache=cache)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.manifest == result.manifest


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("runner.cache").name == "repro.runner.cache"
        assert get_logger("repro.sim").name == "repro.sim"

    def test_level_from_args(self):
        assert level_from_args(0) == logging.WARNING
        assert level_from_args(1) == logging.INFO
        assert level_from_args(2) == logging.DEBUG
        assert level_from_args(5) == logging.DEBUG
        assert level_from_args(0, "error") == logging.ERROR
        assert level_from_args(2, "warning") == logging.WARNING  # name wins
        with pytest.raises(ValueError):
            level_from_args(0, "loud")

    def test_configure_is_idempotent(self):
        root = configure_logging(logging.INFO)
        before = len(root.handlers)
        configure_logging(logging.DEBUG)
        assert len(root.handlers) == before
        assert root.level == logging.DEBUG

    def test_corrupted_cache_entry_warns(self, tmp_path, caplog):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path / "cache")
        spec = SPEC.replace(instructions=2000)
        result = run_point(spec, cache=cache)
        path = cache.path_for(spec)
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            assert cache.get(spec) is None
        assert any("corrupted" in record.message
                   for record in caplog.records)
        # and the next run repairs the entry
        repaired = run_point(spec, cache=cache)
        assert repaired.metrics == result.metrics


# ----------------------------------------------------------------------
# Observed execution: determinism + zero-interference
# ----------------------------------------------------------------------
class TestObservedRuns:
    def test_event_stream_deterministic_across_reruns(self):
        first = run_observed(SPEC)
        second = run_observed(SPEC)
        assert first.events == second.events
        assert first.metrics.rows() == second.metrics.rows()

    def test_serial_matches_parallel(self):
        specs = [SPEC, SPEC.replace(benchmark="go")]
        serial = [run_observed(spec) for spec in specs]
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            parallel = list(pool.map(run_observed, specs))
        for left, right in zip(serial, parallel):
            assert left.events == right.events
            assert left.metrics.rows() == right.metrics.rows()
            assert left.result.metrics == right.result.metrics

    def test_observation_does_not_perturb_results(self):
        """The bus is read-only: observed metrics == unobserved metrics."""
        observed = run_observed(SPEC)
        plain = run_point(SPEC, cache=None)
        assert observed.result.metrics == plain.metrics

    def test_rejects_non_frontend_specs(self):
        with pytest.raises(ValueError):
            run_observed(SPEC.replace(kind="dynamic"))

    def test_event_taxonomy_present(self):
        observed = run_observed(SPEC)
        kinds = {(r["source"], r["event"]) for r in observed.events}
        for expected in [
            ("frontend", "trace_hit"), ("frontend", "trace_miss"),
            ("frontend", "idle_burst_start"), ("frontend", "idle_burst_end"),
            ("engine", "region_spawn"), ("engine", "region_assign"),
            ("engine", "region_complete"), ("engine", "trace_constructed"),
            ("engine", "constructor_release"),
            ("buffers", "probe"), ("buffers", "insert"), ("buffers", "take"),
            ("trace_cache", "fill"),
        ]:
            assert expected in kinds, f"missing event {expected}"

    def test_events_are_ordered(self):
        observed = run_observed(SPEC)
        seqs = [r["seq"] for r in observed.events]
        assert seqs == list(range(1, len(seqs) + 1))
        cycles = [r["cycle"] for r in observed.events]
        assert all(b >= a for a, b in zip(cycles, cycles[1:]))

    def test_golden_interval_metrics(self, tmp_path):
        """Pinned metrics.jsonl for one Figure-5 point.

        Regenerate (deliberately, after a simulator change) with::

            PYTHONPATH=src python -c "
            from repro.runner import ExperimentSpec, run_observed
            run_observed(ExperimentSpec(benchmark='compress',
                tc_entries=256, pb_entries=256, instructions=6000)
            ).write_metrics(
                'tests/golden/metrics_compress_tc256_pb256_i6000.jsonl')"
        """
        golden = GOLDEN_DIR / "metrics_compress_tc256_pb256_i6000.jsonl"
        produced = run_observed(SPEC).write_metrics(
            tmp_path / "metrics.jsonl")
        assert produced.read_text() == golden.read_text()


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------
class TestPerfetto:
    def test_real_run_validates(self, tmp_path):
        observed = run_observed(SPEC)
        path = observed.write_perfetto(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"]

    def test_track_layout(self):
        observed = run_observed(SPEC)
        trace = perfetto_trace(observed.events)
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"frontend", "preconstruction", "storage"}
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C", "b", "e"} <= phases

    def test_balanced_and_closed_spans(self):
        """Every async region span opened is closed (at end-of-trace if
        the region was still live), and B/E nest per track."""
        observed = run_observed(SPEC)
        events = perfetto_trace(observed.events)["traceEvents"]
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        assert begins == ends
        assert sum(1 for e in events if e["ph"] == "B") == \
            sum(1 for e in events if e["ph"] == "E")

    def test_validator_catches_malformed_events(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 1,
                              "ts": 0, "name": "x"}]})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                              "ts": 0, "name": "x"}]})  # X without dur
        unbalanced = {"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 1, "ts": 0, "name": "x"}]}
        assert validate_chrome_trace(unbalanced)

    def test_export_deterministic(self, tmp_path):
        observed = run_observed(SPEC)
        a = observed.write_perfetto(tmp_path / "a.json")
        b = observed.write_perfetto(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
