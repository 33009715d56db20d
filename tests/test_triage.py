"""Regression triage: differ localization, hypotheses, report."""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner import ExperimentSpec, ResultCache
from repro.triage import (
    RunCapture,
    capture_spec,
    diff_paths,
    diff_runs,
    diff_specs,
    first_divergent_bucket,
    load_capture,
    rank_hypotheses,
    render_report,
    write_report,
)

GOLDEN = Path(__file__).parent / "golden"
BUDGET = 4_000


def spec_for(**overrides):
    overrides.setdefault("benchmark", "compress")
    overrides.setdefault("tc_entries", 64)
    overrides.setdefault("pb_entries", 64)
    overrides.setdefault("instructions", BUDGET)
    return ExperimentSpec(**overrides)


def synthetic(label, rows, events=(), bucket_cycles=1024, summary=None):
    """A hand-built capture: ``rows`` maps bucket index -> overrides."""
    intervals = []
    for index in sorted(rows):
        row = {"type": "interval", "bucket": index,
               "start_cycle": index * bucket_cycles,
               "end_cycle": (index + 1) * bucket_cycles,
               "traces": 10, "instructions": 120, "trace_hits": 8,
               "trace_misses": 2, "buffer_hits": 1, "idle_cycles": 64,
               "traces_constructed": 1, "port_cycles": 32}
        row.update(rows[index])
        intervals.append(row)
    return RunCapture(label=label, bucket_cycles=bucket_cycles,
                      intervals=intervals, events=list(events),
                      summary=dict(summary or {}))


# ----------------------------------------------------------------------
# Binary-search bucket localization
# ----------------------------------------------------------------------
class TestFirstDivergentBucket:
    def test_identical_captures_have_no_divergence(self):
        a = synthetic("a", {i: {} for i in range(8)})
        b = synthetic("b", {i: {} for i in range(8)})
        assert first_divergent_bucket(a, b) is None

    @pytest.mark.parametrize("where", [0, 3, 7])
    def test_finds_the_first_divergent_bucket(self, where):
        a = synthetic("a", {i: {} for i in range(8)})
        rows = {i: ({"port_cycles": 99} if i >= where else {})
                for i in range(8)}
        b = synthetic("b", rows)
        assert first_divergent_bucket(a, b) == where

    def test_later_noise_does_not_mask_the_first_divergence(self):
        a = synthetic("a", {i: {} for i in range(8)})
        b = synthetic("b", {i: {} for i in range(8)})
        b.intervals[2]["trace_misses"] = 7
        b.intervals[6]["port_cycles"] = 999
        assert first_divergent_bucket(a, b) == 2

    def test_missing_bucket_reads_as_all_zeros(self):
        a = synthetic("a", {0: {}, 1: {}, 2: {}})
        b = synthetic("b", {0: {}, 2: {}})   # bucket 1 never emitted
        assert first_divergent_bucket(a, b) == 1

    def test_sparse_non_contiguous_bucket_indices(self):
        a = synthetic("a", {0: {}, 5: {}, 11: {}})
        b = synthetic("b", {0: {}, 5: {}, 11: {"idle_cycles": 1}})
        assert first_divergent_bucket(a, b) == 11

    def test_empty_captures_are_equal(self):
        assert first_divergent_bucket(synthetic("a", {}),
                                      synthetic("b", {})) is None


# ----------------------------------------------------------------------
# diff_runs: window, counters, event drill
# ----------------------------------------------------------------------
class TestDiffRuns:
    def test_identical_runs(self):
        a = synthetic("a", {i: {} for i in range(4)})
        result = diff_runs(a, copy.deepcopy(a))
        assert result.identical
        assert result.bucket is None
        assert result.hypotheses == []
        assert "identical" in result.format()

    def test_summary_only_divergence_is_not_identical(self):
        a = synthetic("a", {0: {}}, summary={"ipc": 1.0})
        b = synthetic("b", {0: {}}, summary={"ipc": 2.0})
        result = diff_runs(a, b)
        assert not result.identical
        assert result.bucket is None
        assert result.summary_deltas == {"ipc": (1.0, 2.0)}

    def test_bucket_width_mismatch_is_an_error(self):
        a = synthetic("a", {0: {}}, bucket_cycles=1024)
        b = synthetic("b", {0: {}}, bucket_cycles=512)
        with pytest.raises(ValueError, match="bucket width"):
            diff_runs(a, b)

    def test_window_is_one_bucket_wide(self):
        a = synthetic("a", {i: {} for i in range(6)})
        b = synthetic("b", {i: ({"port_cycles": 90} if i == 4 else {})
                            for i in range(6)})
        result = diff_runs(a, b)
        assert result.bucket == 4
        start, end = result.window
        assert (end - start) == a.bucket_cycles
        assert result.counters == {"port_cycles": (32, 90)}

    def test_event_drill_names_first_differing_record(self):
        events_a = [
            {"seq": 1, "cycle": 100, "source": "frontend",
             "event": "trace_hit"},
            {"seq": 2, "cycle": 300, "source": "engine",
             "event": "region_complete", "reason": "exhausted"},
        ]
        events_b = [
            {"seq": 5, "cycle": 100, "source": "frontend",
             "event": "trace_hit"},     # seq differs: not a divergence
            {"seq": 6, "cycle": 300, "source": "engine",
             "event": "region_complete", "reason": "fetch_bound"},
        ]
        a = synthetic("a", {0: {}}, events=events_a)
        b = synthetic("b", {0: {"traces_constructed": 3}}, events=events_b)
        result = diff_runs(a, b)
        assert result.first_event is not None
        assert result.first_event["position"] == 1
        assert result.first_event["b"]["reason"] == "fetch_bound"

    def test_event_drill_reports_stream_length_mismatch(self):
        record = {"seq": 1, "cycle": 10, "source": "frontend",
                  "event": "trace_miss"}
        a = synthetic("a", {0: {}}, events=[record])
        b = synthetic("b", {0: {"trace_misses": 9}},
                      events=[record, {"seq": 2, "cycle": 20,
                                       "source": "frontend",
                                       "event": "trace_miss"}])
        result = diff_runs(a, b)
        assert result.first_event["position"] == 1
        assert result.first_event["a"] is None
        assert result.first_event["b"]["cycle"] == 20


# ----------------------------------------------------------------------
# The acceptance scenario: injected I-cache-port counter skew
# ----------------------------------------------------------------------
class TestInjectedPortSkew:
    def test_diff_names_port_cycles_within_two_buckets(self):
        a = capture_spec(spec_for())
        b = copy.deepcopy(a)
        assert len(b.intervals) >= 3, "budget too small to bucket"
        target = b.intervals[1]
        target["port_cycles"] += 41
        result = diff_runs(a, b)
        assert not result.identical
        assert result.hypotheses
        assert result.hypotheses[0].counter == "port_cycles"
        assert result.hypotheses[0].source == "engine"
        # Cycle window no wider than 2 interval buckets, containing
        # the injected bucket.
        start, end = result.window
        assert (end - start) <= 2 * a.bucket_cycles
        assert start <= target["start_cycle"] < end

    def test_real_captures_record_port_cycles(self):
        capture = capture_spec(spec_for())
        assert any(row["port_cycles"] for row in capture.intervals)


# ----------------------------------------------------------------------
# Hypothesis ranking
# ----------------------------------------------------------------------
class TestHypotheses:
    def test_ranked_by_relative_skew(self):
        bucket_a = {"traces": 100, "port_cycles": 10}
        bucket_b = {"traces": 105, "port_cycles": 40}
        ranked = rank_hypotheses(bucket_a, bucket_b, (0, 1024))
        assert [h.counter for h in ranked[:2]] == ["port_cycles", "traces"]
        assert ranked[0].rank == 1
        assert ranked[0].delta == 30
        assert ranked[1].rank == 2

    def test_equal_counters_produce_no_hypothesis(self):
        ranked = rank_hypotheses({"traces": 5}, {"traces": 5}, (0, 1024))
        assert ranked == []

    def test_evidence_event_carries_pc(self):
        events_a = [{"seq": 1, "cycle": 10, "source": "frontend",
                     "event": "trace_miss", "pc": 0x1000}]
        events_b = [{"seq": 1, "cycle": 12, "source": "frontend",
                     "event": "trace_miss", "pc": 0x2000}]
        ranked = rank_hypotheses({"trace_misses": 1}, {"trace_misses": 2},
                                 (0, 1024), events_a, events_b)
        suspect = next(h for h in ranked if h.counter == "trace_misses")
        assert suspect.event is not None
        assert suspect.pc == 0x2000
        assert "pc=0x2000" in suspect.describe()

    def test_to_dict_is_json_serialisable(self):
        ranked = rank_hypotheses({"traces": 1}, {"traces": 2}, (0, 1024))
        json.dumps([h.to_dict() for h in ranked])


# ----------------------------------------------------------------------
# Capture I/O: three accepted manifest shapes
# ----------------------------------------------------------------------
class TestCaptureIO:
    def test_capture_round_trips_through_disk(self, tmp_path):
        capture = synthetic("roundtrip", {0: {}, 1: {"traces": 3}},
                            events=[{"seq": 1, "cycle": 5,
                                     "source": "frontend",
                                     "event": "trace_hit"}],
                            summary={"ipc": 1.5})
        path = capture.write(tmp_path / "capture.json")
        loaded = load_capture(path)
        assert loaded.label == "roundtrip"
        assert loaded.intervals == capture.intervals
        assert loaded.events == capture.events
        assert loaded.summary == capture.summary

    def test_run_manifest_is_reexecuted_observed(self, tmp_path):
        spec = spec_for()
        payload = {"schema": 4, "digest": "x" * 64,
                   "spec": spec.to_dict(), "metrics": {"ipc": 1.0}}
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(payload))
        capture = load_capture(path)
        assert capture.spec == spec.to_dict()
        assert capture.intervals and capture.events

    def test_bare_spec_payload_is_executed(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_for().to_dict()))
        capture = load_capture(path)
        assert capture.label == spec_for().label
        assert capture.intervals

    def test_junk_payload_is_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a capture"):
            load_capture(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="JSON object"):
            load_capture(path)


# ----------------------------------------------------------------------
# diff_specs: the ResultCache short-circuit
# ----------------------------------------------------------------------
class TestDiffSpecs:
    def test_equal_aggregates_short_circuit_observed_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = spec_for()
        first = diff_specs(spec, spec, cache=cache)
        assert first.identical
        # Warm rerun: both points served from cache, nothing executes.
        second = diff_specs(spec, spec, cache=cache)
        assert second.identical
        assert second.executed == 0

    def test_divergent_specs_localize(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = diff_specs(spec_for(pb_entries=64),
                            spec_for(pb_entries=0), cache=cache)
        assert not result.identical
        assert result.executed >= 2   # the observed runs were paid for


# ----------------------------------------------------------------------
# Golden capture pair + CLI
# ----------------------------------------------------------------------
class TestGoldenPair:
    A = GOLDEN / "triage_capture_a.json"
    B = GOLDEN / "triage_capture_b.json"

    def test_golden_diff_names_the_injected_port_skew(self):
        result = diff_paths(self.A, self.B)
        assert not result.identical
        assert result.bucket == 3
        assert result.hypotheses[0].counter == "port_cycles"
        assert result.counters["port_cycles"] == (96, 160)

    def test_cli_diff_exits_one_on_divergence(self, capsys):
        assert main(["diff", str(self.A), str(self.B)]) == 1
        out = capsys.readouterr().out
        assert "port_cycles" in out
        assert "first divergent bucket: 3" in out

    def test_cli_diff_exits_zero_when_identical(self, capsys):
        assert main(["diff", str(self.A), str(self.A)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_cli_diff_json_output(self, capsys):
        assert main(["diff", "--json", str(self.A), str(self.B)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["bucket"] == 3
        assert payload["hypotheses"][0]["counter"] == "port_cycles"
        assert payload["window"] == [3072, 4096]

    def test_cli_diff_bad_input_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["diff", str(missing), str(self.A)]) == 2
        assert "diff:" in capsys.readouterr().err

    def test_cli_diff_unknown_spec_field_exits_two(self, tmp_path, capsys):
        # A pre-v6 result document: its spec carries "simulator".
        path = tmp_path / "old.json"
        spec = dict(spec_for().to_dict(), simulator="vectorized")
        path.write_text(json.dumps({"spec": spec, "metrics": {},
                                    "wall_seconds": 0.0}))
        assert main(["diff", str(path), str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("diff:") and "simulator" in err[0]

    def test_cli_diff_on_spec_manifests_short_circuits(self, tmp_path,
                                                       capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_for().to_dict()))
        assert main(["diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------
@pytest.fixture
def report_inputs(tmp_path):
    metrics = tmp_path / "metrics.jsonl"
    rows = [
        {"type": "meta", "bucket_cycles": 1024, "buckets": 2},
        {"type": "interval", "bucket": 0, "start_cycle": 0,
         "end_cycle": 1024, "traces": 10, "instructions": 120,
         "trace_hits": 8, "trace_misses": 2, "buffer_hits": 1,
         "idle_cycles": 64, "traces_constructed": 1, "port_cycles": 32,
         "trace_misses_per_ki": 16.7},
        {"type": "interval", "bucket": 1, "start_cycle": 1024,
         "end_cycle": 2048, "traces": 12, "instructions": 140,
         "trace_hits": 11, "trace_misses": 1, "buffer_hits": 2,
         "idle_cycles": 30, "traces_constructed": 2, "port_cycles": 40,
         "trace_misses_per_ki": 7.1},
        {"type": "histogram", "name": "trace_length", "count": 22,
         "min": 1, "max": 9, "mean": 5.2,
         "counts": {"1": 2, "5": 12, "9": 8}},
    ]
    metrics.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    bench = tmp_path / "BENCH_quick.json"
    bench.write_text(json.dumps({
        "schema": 1, "mode": "quick", "jobs": 1,
        "baseline_commit": "61d73a5",
        "sections": {"figure5": {"specs": 40, "baseline_seconds": 9.67,
                                 "current_seconds": 4.1,
                                 "speedup": 2.36}},
        "total": {"baseline_seconds": 9.67, "current_seconds": 4.1,
                  "speedup": 2.36}}))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"traceEvents": []}))
    return metrics, bench, trace


class TestReport:
    def test_report_is_one_self_contained_html_file(self, report_inputs):
        metrics, bench, trace = report_inputs
        html = render_report(metrics=[metrics], bench=[bench],
                             traces=[trace])
        assert html.startswith("<!doctype html>")
        # Every declared input is rendered.
        for needle in ("trace_length", "figure5", "trace.json",
                       "ui.perfetto.dev", "trace misses per 1000"):
            assert needle in html, needle
        # Self-contained: no external scripts, stylesheets, or fetches.
        assert "<script" not in html
        assert "<link" not in html
        assert "url(http" not in html
        # Light/dark both ship via CSS custom properties.
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html

    def test_histograms_fold_into_bounded_bins(self, tmp_path):
        rows = [
            {"type": "meta", "bucket_cycles": 1024, "buckets": 0},
            {"type": "histogram", "name": "idle_burst_length",
             "count": 500, "min": 1, "max": 500, "mean": 250.0,
             "counts": {str(v): 1 for v in range(1, 501)}},
        ]
        metrics = tmp_path / "wide.jsonl"
        metrics.write_text("\n".join(json.dumps(r) for r in rows))
        html = render_report(metrics=[metrics])
        # 500 distinct values must not become 500 bars.
        assert html.count("<path") <= 40

    def test_empty_input_set_is_an_error(self):
        with pytest.raises(ValueError, match="nothing to report"):
            render_report()

    def test_cli_report_writes_the_dashboard(self, report_inputs,
                                             tmp_path, capsys):
        metrics, bench, trace = report_inputs
        out = tmp_path / "dash.html"
        assert main(["report", "--metrics", str(metrics),
                     "--bench", str(bench), "--perfetto", str(trace),
                     "--title", "smoke", "-o", str(out)]) == 0
        assert out.is_file()
        assert "smoke" in out.read_text()
        assert str(out) in capsys.readouterr().out

    def test_cli_report_without_inputs_exits_two(self, tmp_path, capsys):
        assert main(["report", "-o", str(tmp_path / "x.html")]) == 2
        assert "report:" in capsys.readouterr().err

    def test_write_report_returns_the_path(self, report_inputs, tmp_path):
        metrics, _, _ = report_inputs
        target = write_report(tmp_path / "out.html", metrics=[metrics])
        assert target == tmp_path / "out.html"
        assert target.is_file()
