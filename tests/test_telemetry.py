"""Host-domain telemetry: spans, metrics, sessions, merged Perfetto.

The tentpole guarantees under test:

* span nesting/propagation — including across the process-pool
  boundary via explicit context handoff;
* deterministic exports — OpenMetrics and canonical JSON golden
  files, registry merge round-trips;
* zero interference — ``repro all`` results and stdout are identical
  with telemetry on and off, serial and parallel;
* the merged host+sim Perfetto trace validates with both domains.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    Telemetry,
    current_telemetry,
    disable_telemetry,
    enable_telemetry,
    format_hotspots,
    format_metrics,
    format_span_tree,
    format_telemetry,
    host_perfetto_events,
    hotspot_rows,
    load_telemetry,
    merged_perfetto_trace,
    profile_call,
    span,
    telemetry_session,
    utc_timestamp,
    validate_merged_trace,
    write_merged_perfetto,
    write_telemetry,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with telemetry off."""
    disable_telemetry()
    yield
    disable_telemetry()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_nesting_records_parentage(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        names = [record["name"] for record in tracer.spans()]
        assert names == ["outer", "inner"]

    def test_ids_unique_across_tracer_instances(self):
        # A pool worker gets a fresh tracer per group task; ids must
        # not restart, or spans from different groups in one worker
        # collide and cross-link trees.
        first = SpanTracer()
        with first.span("a"):
            pass
        second = SpanTracer()
        with second.span("b"):
            pass
        ids = [record["id"]
               for record in first.spans() + second.spans()]
        assert len(ids) == len(set(ids))

    def test_attrs_coerced_to_scalars(self):
        tracer = SpanTracer()
        with tracer.span("s", path=Path("x/y"), count=3, ok=True):
            pass
        attrs = tracer.spans()[0]["attrs"]
        assert attrs == {"path": "x/y", "count": 3, "ok": True}

    def test_live_record_attrs_mutable(self):
        tracer = SpanTracer()
        with tracer.span("cache.get") as record:
            record["attrs"]["outcome"] = "hit"
        assert tracer.spans()[0]["attrs"]["outcome"] == "hit"

    def test_context_handoff_parents_across_tracers(self):
        parent = SpanTracer()
        with parent.span("runner.batch") as batch:
            context = parent.current_context()
            worker = SpanTracer(context)
            with worker.span("runner.group"):
                pass
        assert context["span"] == batch["id"]
        assert worker.spans()[0]["parent"] == batch["id"]

    def test_explicit_context_wins_over_stack(self):
        tracer = SpanTracer()
        with tracer.span("a") as a:
            context = {"schema": 1, "span": a["id"], "pid": os.getpid()}
            with tracer.span("b"):
                with tracer.span("c", context=context) as c:
                    pass
        assert c["parent"] == a["id"]

    def test_format_span_tree_collapses_leaf_groups(self):
        tracer = SpanTracer()
        with tracer.span("runner.batch"):
            for _ in range(6):
                with tracer.span("runner.point"):
                    pass
        text = format_span_tree(tracer.spans())
        assert "runner.point x6" in text
        assert text.count("runner.point") == 1

    def test_format_span_tree_keeps_small_groups(self):
        tracer = SpanTracer()
        with tracer.span("parent"):
            with tracer.span("child", label="x"):
                pass
        text = format_span_tree(tracer.spans())
        assert "child" in text and "label=x" in text
        assert "x1" not in text


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def build_golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_cache_requests", {"outcome": "hit"},
                     help="Result-cache requests").add(3)
    registry.counter("repro_cache_requests", {"outcome": "miss"},
                     help="Result-cache requests").add(1)
    registry.gauge("repro_jobs", help="Configured worker count").set(2)
    histogram = registry.histogram("repro_runner_point_seconds",
                                   boundaries=(0.1, 1.0, 10.0),
                                   help="Per-point wall seconds")
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    return registry


class TestMetricsRegistry:
    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").add(-1)

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x")

    def test_histogram_boundaries_must_increase(self):
        from repro.telemetry import Histogram

        with pytest.raises(ValueError):
            Histogram(boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(boundaries=(2.0, 1.0))

    def test_histogram_le_bucket_semantics(self):
        from repro.telemetry import Histogram

        histogram = Histogram(boundaries=(0.1, 1.0))
        histogram.observe(0.1)      # exactly on a boundary: le="0.1"
        histogram.observe(0.5)
        histogram.observe(2.0)      # overflow bucket
        assert histogram.bucket_counts == [1, 1, 1]

    def test_openmetrics_matches_golden(self):
        expected = (GOLDEN / "telemetry_metrics.om").read_text()
        assert build_golden_registry().to_openmetrics() == expected

    def test_json_matches_golden(self):
        expected = (GOLDEN / "telemetry_metrics.json").read_text()
        assert build_golden_registry().to_json() == expected

    def test_merge_round_trip_is_identity(self):
        original = build_golden_registry().to_dict()
        assert MetricsRegistry.from_dict(original).to_dict() == original

    def test_merge_is_additive_for_counters_and_histograms(self):
        registry = build_golden_registry()
        registry.merge(build_golden_registry().to_dict())
        dump = registry.to_dict()
        by_name = {entry["name"]: entry for entry in dump["metrics"]}
        hits = by_name["repro_cache_requests"]["samples"][0]
        assert hits["value"] == 6
        histogram = by_name["repro_runner_point_seconds"]["samples"][0]
        assert histogram["count"] == 10
        # Gauges take the incoming value instead of adding.
        assert by_name["repro_jobs"]["samples"][0]["value"] == 2

    def test_merge_rejects_boundary_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", boundaries=(1.0, 2.0)).observe(1.5)
        other = MetricsRegistry()
        other.histogram("repro_h", boundaries=(1.0, 2.0, 3.0)).observe(1.5)
        with pytest.raises(ValueError, match="boundary mismatch"):
            registry.merge(other.to_dict())

    def test_format_metrics_renders_every_sample(self):
        text = format_metrics(build_golden_registry().to_dict())
        assert 'repro_cache_requests{outcome="hit"} = 3' in text
        assert "repro_runner_point_seconds count=5" in text


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestSession:
    def test_enable_is_idempotent(self):
        first = enable_telemetry()
        assert enable_telemetry() is first
        assert current_telemetry() is first
        assert disable_telemetry() is first
        assert current_telemetry() is None

    def test_module_span_is_noop_when_off(self):
        with span("anything") as record:
            assert record is None

    def test_module_span_records_when_on(self):
        session = enable_telemetry()
        with span("check.case", benchmark="gcc") as record:
            assert record is not None
        assert session.tracer.spans()[0]["name"] == "check.case"

    def test_telemetry_session_scopes_and_nests(self):
        with telemetry_session() as outer:
            assert current_telemetry() is outer
            with telemetry_session() as inner:
                assert inner is outer
            assert current_telemetry() is outer
        assert current_telemetry() is None

    def test_harvest_absorb_folds_worker_state(self):
        parent = Telemetry()
        with parent.span("runner.batch"):
            context = parent.handoff()
        worker = Telemetry(context)
        with worker.span("runner.group"):
            pass
        worker.registry.counter("repro_cache_requests",
                                {"outcome": "miss"}).add(2)
        parent.absorb(worker.harvest())
        names = {record["name"] for record in parent.tracer.spans()}
        assert names == {"runner.batch", "runner.group"}
        text = parent.registry.to_openmetrics()
        assert 'repro_cache_requests_total{outcome="miss"} 2' in text

    def test_absorb_tolerates_empty_payload(self):
        session = Telemetry()
        session.absorb(None)
        session.absorb({})
        assert session.tracer.spans() == []

    def test_write_load_format_round_trip(self, tmp_path):
        session = Telemetry()
        with session.span("cli.bench"):
            pass
        session.registry.counter("repro_runner_requested").add(4)
        path = write_telemetry(session, tmp_path / "t" / "dump.json")
        payload = load_telemetry(path)
        assert payload["schema"] == 1
        assert payload["spans"][0]["name"] == "cli.bench"
        text = format_telemetry(payload)
        assert "cli.bench" in text
        assert "repro_runner_requested = 4" in text

    def test_load_rejects_non_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_telemetry(bad)


class TestUtcTimestamp:
    def test_pinned_format(self):
        assert utc_timestamp(1700000000.0) == "2023-11-14T22:13:20+0000"

    def test_tz_invariant_across_processes(self):
        """Two processes in different TZ envs must emit identical bytes."""
        src = str(Path(__file__).parents[1] / "src")
        script = ("from repro.telemetry import utc_timestamp;"
                  "print(utc_timestamp(1700000000.0))")
        outputs = []
        for tz in ("UTC", "America/New_York", "Australia/Sydney"):
            env = dict(os.environ, TZ=tz, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", script],
                                    capture_output=True, text=True,
                                    env=env, check=True, timeout=60)
            outputs.append(result.stdout.strip())
        assert outputs == ["2023-11-14T22:13:20+0000"] * 3


# ----------------------------------------------------------------------
# Merged Perfetto export
# ----------------------------------------------------------------------
def tracer_with_spans() -> SpanTracer:
    tracer = SpanTracer()
    with tracer.span("runner.batch", specs=2):
        with tracer.span("runner.point", label="a"):
            pass
        with tracer.span("runner.point", label="b"):
            pass
    return tracer


class TestMergedPerfetto:
    def test_host_events_remap_pids_and_tids(self):
        spans = tracer_with_spans().spans()
        worker = [dict(record, pid=record["pid"] + 1, id="w-1")
                  for record in spans[:1]]
        events = host_perfetto_events(spans + worker)
        process_names = {event["args"]["name"]: event["pid"]
                         for event in events
                         if event.get("name") == "process_name"}
        assert process_names[f"host:worker-{os.getpid() + 1}"] == 101
        assert process_names["host:main"] == 100
        slices = [event for event in events if event["ph"] == "X"]
        assert len(slices) == 4
        assert min(event["ts"] for event in slices) == 0
        assert all(event["cat"] == "host" for event in slices)

    def test_host_events_empty_for_no_spans(self):
        assert host_perfetto_events([]) == []

    def test_merged_trace_validates_with_both_domains(self, tmp_path):
        spans = tracer_with_spans().spans()
        payload = merged_perfetto_trace(spans, [])
        assert validate_merged_trace(payload) == []
        names = [event["args"]["name"] for event in payload["traceEvents"]
                 if event.get("name") == "process_name"]
        assert any(name.startswith("host:") for name in names)
        assert any(name.startswith("sim:") for name in names)
        path = write_merged_perfetto(spans, [], tmp_path / "merged.json")
        reloaded = json.loads(path.read_text())
        assert validate_merged_trace(reloaded) == []

    def test_validator_requires_host_domain(self):
        payload = merged_perfetto_trace([], [])
        problems = validate_merged_trace(payload)
        assert any("no host-domain" in problem for problem in problems)

    def test_validator_flags_pid_range_violations(self):
        payload = merged_perfetto_trace(tracer_with_spans().spans(), [])
        for event in payload["traceEvents"]:
            if event.get("name") != "process_name":
                continue
            name = event["args"]["name"]
            if name.startswith("host:"):
                event["pid"] = 1        # collide with the sim domain
        problems = validate_merged_trace(payload)
        assert any("below HOST_PID_BASE" in problem
                   for problem in problems)
        assert any("pid collision" in problem for problem in problems)


# ----------------------------------------------------------------------
# cProfile capture
# ----------------------------------------------------------------------
class TestProfileCapture:
    def test_profile_call_returns_rows_and_writes_pstats(self, tmp_path):
        pstats_path = tmp_path / "prof" / "out.pstats"
        result, rows, written = profile_call(
            lambda: sum(range(1000)), pstats_path=pstats_path, top=5)
        assert result == 499500
        assert written == pstats_path and pstats_path.is_file()
        assert 0 < len(rows) <= 5
        assert all({"function", "ncalls", "tottime", "cumtime"}
                   <= set(row) for row in rows)
        table = format_hotspots(rows)
        assert "cumtime" in table and rows[0]["function"] in table

    def test_blocked_profiler_degrades_to_unprofiled(self, monkeypatch):
        # Some interpreters raise when a second profiler activates
        # (e.g. ``repro profile`` under an outer profiler); the capture
        # must degrade to an unprofiled run, never fail the run.
        import cProfile

        def refuse(self):
            raise ValueError("another profiling tool is already active")

        monkeypatch.setattr(cProfile.Profile, "enable", refuse)
        value, rows, written = profile_call(lambda: 42)
        assert value == 42
        assert rows == [] and written is None

    def test_format_hotspots_empty(self):
        assert format_hotspots([]) == "no profile data captured"

    def test_hotspot_rows_sorted_by_cumtime(self):
        _, rows, _ = profile_call(
            lambda: [sorted(range(100)) for _ in range(50)])
        cums = [row["cumtime"] for row in rows]
        assert cums == sorted(cums, reverse=True)
        assert isinstance(hotspot_rows.__doc__, str)


# ----------------------------------------------------------------------
# Runner / cache integration
# ----------------------------------------------------------------------
def small_specs():
    from repro.runner import ExperimentSpec

    return [ExperimentSpec(benchmark=benchmark, tc_entries=64,
                           pb_entries=pb, instructions=4000)
            for benchmark in ("compress", "lisp")
            for pb in (0, 32)]


class TestRunnerIntegration:
    def test_serial_parallel_results_identical_with_telemetry(self):
        from repro.runner import ExperimentRunner

        specs = small_specs()

        def metrics_of(jobs, telemetry):
            disable_telemetry()
            if telemetry:
                enable_telemetry()
            runner = ExperimentRunner(jobs=jobs, cache=None)
            results = runner.run(specs)
            disable_telemetry()
            return [result.metrics for result in results]

        plain = metrics_of(1, telemetry=False)
        assert metrics_of(1, telemetry=True) == plain
        assert metrics_of(2, telemetry=True) == plain
        assert metrics_of(2, telemetry=False) == plain

    def test_spans_propagate_across_the_pool(self):
        from repro.runner import ExperimentRunner

        session = enable_telemetry()
        runner = ExperimentRunner(jobs=2, cache=None)
        runner.run(small_specs())
        spans = session.tracer.spans()
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["runner.batch"]) == 1
        assert len(by_name["runner.group"]) == 2
        assert len(by_name["runner.point"]) == 4
        batch = by_name["runner.batch"][0]
        # Worker groups parent under the submitting batch span even
        # though they were recorded in other processes.
        assert all(record["parent"] == batch["id"]
                   for record in by_name["runner.group"])
        worker_pids = {record["pid"] for record in by_name["runner.group"]}
        assert batch["pid"] not in worker_pids

    def test_span_ids_unique_with_multiple_groups_per_worker(self):
        # Four benchmark groups over two workers: each worker runs
        # more than one group task, i.e. more than one tracer per
        # process.  Every id must stay unique and every resolvable
        # parent must sit in the same process or be the batch span.
        from repro.runner import ExperimentRunner, ExperimentSpec

        specs = [ExperimentSpec(benchmark=benchmark, tc_entries=64,
                                pb_entries=0, instructions=4000)
                 for benchmark in ("compress", "lisp", "m88ksim",
                                   "ijpeg")]
        session = enable_telemetry()
        runner = ExperimentRunner(jobs=2, cache=None)
        runner.run(specs)
        spans = session.tracer.spans()
        ids = [record["id"] for record in spans]
        assert len(ids) == len(set(ids))
        by_id = {record["id"]: record for record in spans}
        for record in spans:
            parent = record["parent"]
            if parent is None or parent not in by_id:
                continue
            holder = by_id[parent]
            assert (holder["pid"] == record["pid"]
                    or holder["name"] == "runner.batch"), (record, holder)

    def test_session_metrics_match_timing_report(self):
        from repro.runner import ExperimentRunner

        session = enable_telemetry()
        runner = ExperimentRunner(jobs=1, cache=None)
        runner.run(small_specs())
        text = session.registry.to_openmetrics()
        assert "repro_runner_requested_total 4" in text
        assert "repro_runner_executed_total 4" in text
        assert "repro_runner_point_seconds_count 4" in text
        assert runner.report.requested == 4

    def test_cache_counters_hit_miss_write(self, tmp_path):
        from repro.runner import ResultCache, run_point

        session = enable_telemetry()
        cache = ResultCache(tmp_path / "cache")
        spec = small_specs()[0]
        run_point(spec, cache=cache)          # miss + write
        run_point(spec, cache=cache)          # hit
        text = session.registry.to_openmetrics()
        assert 'repro_cache_requests_total{outcome="miss"} 1' in text
        assert 'repro_cache_requests_total{outcome="hit"} 1' in text
        assert "repro_cache_writes_total 1" in text
        outcomes = [record["attrs"].get("outcome")
                    for record in session.tracer.spans()
                    if record["name"] == "cache.get"]
        assert outcomes == ["miss", "hit"]

    def test_cache_quarantine_counter(self, tmp_path):
        from repro.runner import ResultCache, run_point

        session = enable_telemetry()
        cache = ResultCache(tmp_path / "cache")
        spec = small_specs()[0]
        run_point(spec, cache=cache)
        cache.path_for(spec).write_text("{not json")
        run_point(spec, cache=cache)          # corrupt -> quarantine
        text = session.registry.to_openmetrics()
        assert "repro_cache_quarantined_total 1" in text

    def test_timing_report_keeps_public_shape(self):
        from repro.runner import TimingReport

        report = TimingReport(jobs=2)
        report.add(requested=3, unique=2, executed=1, cache_hits=1,
                   wall_seconds=0.5)
        assert (report.requested, report.unique, report.executed,
                report.cache_hits) == (3, 2, 1, 1)
        assert report.wall_seconds == 0.5
        payload = report.to_dict()
        for key in ("jobs", "requested", "unique", "executed",
                    "cache_hits", "wall_seconds", "points"):
            assert key in payload
        assert json.loads(report.to_json()) == payload
        assert "3 points (2 unique)" in report.summary()


# ----------------------------------------------------------------------
# Bench trajectory
# ----------------------------------------------------------------------
def bench_payload(seconds=16.0, mode="quick"):
    return {"schema": 2, "mode": mode, "jobs": 1,
            "sections": {"figure5": {"specs": 4,
                                     "current_seconds": seconds}},
            "total": {"current_seconds": seconds}}


class TestBenchTrajectory:
    def test_append_read_round_trip(self, tmp_path):
        from repro.analysis import append_trajectory, read_trajectory

        path = tmp_path / "hist.jsonl"
        append_trajectory(bench_payload(16.0), path, commit="aaa1111")
        append_trajectory(bench_payload(12.0), path, commit="bbb2222")
        rows = read_trajectory(path)
        assert [row["commit"] for row in rows] == ["aaa1111", "bbb2222"]
        assert rows[0]["sections"]["figure5"]["current_seconds"] == 16.0
        assert rows[1]["recorded_at"].endswith("+0000")

    def test_read_skips_damaged_lines_and_missing_file(self, tmp_path):
        from repro.analysis import append_trajectory, read_trajectory

        assert read_trajectory(tmp_path / "absent.jsonl") == []
        path = tmp_path / "hist.jsonl"
        append_trajectory(bench_payload(), path, commit="aaa1111")
        with path.open("a") as handle:
            handle.write('{"truncated": \n')
        append_trajectory(bench_payload(), path, commit="bbb2222")
        assert [row["commit"] for row in read_trajectory(path)] \
            == ["aaa1111", "bbb2222"]

    def test_trajectory_reference_picks_last_matching_mode(self, tmp_path):
        from repro.analysis import (
            append_trajectory,
            check_bench,
            trajectory_reference,
        )

        path = tmp_path / "hist.jsonl"
        append_trajectory(bench_payload(10.0, mode="full"), path,
                          commit="aaa1111")
        append_trajectory(bench_payload(16.0), path, commit="bbb2222")
        append_trajectory(bench_payload(12.0), path, commit="ccc3333")
        reference = trajectory_reference(path, "quick")
        assert reference is not None
        assert reference["sections"]["figure5"]["current_seconds"] == 12.0
        assert trajectory_reference(path, "nope") is None
        # The reference row is check_bench-compatible.
        assert check_bench(bench_payload(12.5), reference,
                           tolerance=0.5) == []
        assert check_bench(bench_payload(30.0), reference,
                           tolerance=0.5)

    def test_cli_bench_appends_and_checks_trajectory(self, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        from repro.cli import main
        from repro.analysis import read_trajectory

        monkeypatch.setattr("repro.analysis.bench.run_bench",
                            lambda **kwargs: bench_payload(16.0))
        trajectory = tmp_path / "hist.jsonl"
        base = ["bench", "--quick",
                "--output", str(tmp_path / "bench.json"),
                "--trajectory", str(trajectory)]
        # First run: an empty trajectory cannot be a reference.
        trajectory.touch()
        assert main(base + ["--check", str(trajectory)]) == 1
        assert "no 'quick' rows" in capsys.readouterr().err
        assert read_trajectory(trajectory) == []
        # Unchecked run records a row...
        assert main(base) == 0
        assert "trajectory appended" in capsys.readouterr().err
        assert len(read_trajectory(trajectory)) == 1
        # ...and the next run checks against it (identical -> pass).
        assert main(base + ["--check", str(trajectory)]) == 0
        err = capsys.readouterr().err
        assert "within +50%" in err
        assert len(read_trajectory(trajectory)) == 2

    def test_cli_report_renders_trajectory(self, capsys, tmp_path):
        from repro.cli import main
        from repro.analysis import append_trajectory

        trajectory = tmp_path / "hist.jsonl"
        append_trajectory(bench_payload(16.0), trajectory,
                          commit="aaa1111")
        append_trajectory(bench_payload(12.0), trajectory,
                          commit="bbb2222")
        out = tmp_path / "report.html"
        assert main(["report", "--trajectory", str(trajectory),
                     "--output", str(out)]) == 0
        html = out.read_text()
        assert "Bench trajectory" in html
        assert "aaa1111" in html and "bbb2222" in html


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestTelemetryCLI:
    def test_all_stdout_identical_with_telemetry(self, capsys, tmp_path):
        from repro.cli import main

        args = ["--instructions", "4000", "all",
                "--benchmarks", "gcc", "--jobs", "2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        dump = tmp_path / "telemetry.json"
        assert main(args + ["--telemetry-json", str(dump)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert dump.is_file()
        payload = load_telemetry(dump)
        names = {record["name"] for record in payload["spans"]}
        assert "cli.all" in names and "runner.batch" in names
        assert current_telemetry() is None   # session torn down

    def test_telemetry_command_renders_dump(self, capsys, tmp_path):
        from repro.cli import main

        dump = tmp_path / "telemetry.json"
        assert main(["--instructions", "4000", "all",
                     "--benchmarks", "gcc",
                     "--telemetry-json", str(dump)]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "telemetry dump" in out and "cli.all" in out
        assert main(["telemetry", str(dump), "--openmetrics"]) == 0
        openmetrics = capsys.readouterr().out
        assert "# EOF" in openmetrics
        assert "repro_runner_requested_total" in openmetrics
        assert main(["telemetry", str(dump), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_telemetry_command_default_reads_cache_root(self, capsys,
                                                        tmp_path):
        from repro.cli import main

        # The run also drops last_telemetry.json under the (hermetic)
        # cache root, which a bare ``repro telemetry`` then reads.
        assert main(["--instructions", "4000", "all",
                     "--benchmarks", "gcc", "--telemetry-json",
                     str(tmp_path / "dump.json")]) == 0
        capsys.readouterr()
        assert main(["telemetry"]) == 0
        assert "telemetry dump" in capsys.readouterr().out

    def test_telemetry_command_without_dump_errors(self, capsys,
                                                   tmp_path):
        from repro.cli import main

        assert main(["telemetry", str(tmp_path / "absent.json")]) == 2
        assert "cannot read dump" in capsys.readouterr().err

    def test_profile_command_wraps_a_cli_command(self, capsys, tmp_path):
        from repro.cli import main

        pstats_path = tmp_path / "list.pstats"
        assert main(["profile", "--pstats", str(pstats_path),
                     "list"]) == 0
        captured = capsys.readouterr()
        assert "gcc" in captured.out          # wrapped command ran
        assert "cumtime" in captured.err      # hotspot table
        assert f"pstats written to {pstats_path}" in captured.err
        assert pstats_path.is_file()

    def test_profile_command_requires_a_command(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2
        assert "no command given" in capsys.readouterr().err

    def test_bench_perfetto_writes_merged_trace(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.cli import main

        monkeypatch.setattr("repro.analysis.bench.run_bench",
                            lambda **kwargs: bench_payload(16.0))
        trace_path = tmp_path / "merged.json"
        assert main(["bench", "--quick", "--no-trajectory",
                     "--output", str(tmp_path / "bench.json"),
                     "--perfetto", str(trace_path)]) == 0
        assert "merged perfetto trace" in capsys.readouterr().err
        payload = json.loads(trace_path.read_text())
        assert validate_merged_trace(payload) == []
        names = [event["args"]["name"]
                 for event in payload["traceEvents"]
                 if event.get("name") == "process_name"]
        assert any(name.startswith("host:") for name in names)
        assert any(name.startswith("sim:") for name in names)


# ----------------------------------------------------------------------
# Triage host evidence
# ----------------------------------------------------------------------
class TestTriageHostEvidence:
    def test_diff_specs_carries_host_spans(self, tmp_path):
        from repro.runner import ResultCache
        from repro.triage import diff_specs

        enable_telemetry()
        spec = small_specs()[0]
        other = small_specs()[1]
        cache = ResultCache(tmp_path / "cache")
        diff = diff_specs(spec, other, cache=cache)
        assert not diff.identical
        names = {row["name"] for row in diff.host}
        assert "triage.capture" in names
        assert any(name.startswith("cache.") for name in names)
        assert "host-span evidence" in diff.format()
        assert diff.to_dict()["host"] == diff.host

    def test_host_evidence_empty_without_telemetry(self, tmp_path):
        from repro.triage import diff_specs, host_evidence

        assert host_evidence() == []
        spec = small_specs()[0]
        diff = diff_specs(spec, spec)
        assert diff.identical
        assert diff.host == []
        assert "host-span evidence" not in diff.format()
