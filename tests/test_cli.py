"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "vortex" in out

    def test_point(self, capsys):
        assert main(["--instructions", "4000", "point", "compress",
                     "--tc", "64"]) == 0
        out = capsys.readouterr().out
        assert "trace_misses_per_ki" in out

    def test_point_with_preconstruction(self, capsys):
        assert main(["--instructions", "4000", "point", "compress",
                     "--tc", "64", "--pb", "32"]) == 0
        assert "buffer_hits" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["point", "spice"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["figure5", "all", "bench", "fuzz"])
    def test_simulator_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command, "--simulator", "scalar"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --simulator" \
            in capsys.readouterr().err

    def test_per_point_profile_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--profile", "all"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --profile" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--instructions", "-5", "point", "gcc"],
         "point: instruction budget must be positive"),
        (["--instructions", "0", "point", "gcc"],
         "point: instruction budget must be positive"),
        (["point", "gcc", "--tc", "0"], "point: tc_entries must be positive"),
        (["point", "gcc", "--pb", "-3"],
         "point: pb_entries must be non-negative"),
        (["fuzz", "--seeds", "0"], "fuzz: seeds must be >= 1"),
        (["fuzz", "--budget", "0", "--seeds", "1"],
         "fuzz: instruction budget must be positive"),
        (["stats", "gcc", "--bucket-cycles", "0"],
         "stats: bucket_cycles must be positive"),
        (["figure5", "--jobs", "0"], "figure5: jobs must be >= 1"),
        (["REPRO_INSTRUCTIONS=abc", "point", "gcc"],
         "point: REPRO_INSTRUCTIONS must be an integer, got 'abc'"),
    ])
    def test_bad_input_exits_two_with_one_line(self, argv, message, capsys,
                                               monkeypatch):
        if argv[0].startswith("REPRO_INSTRUCTIONS="):
            monkeypatch.setenv("REPRO_INSTRUCTIONS", argv[0].split("=")[1])
            argv = argv[1:]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    @pytest.mark.parametrize("flag, content, message", [
        ("--bench", '{"sections": 3}',
         'expected an object whose "sections" maps section names to '
         'objects'),
        ("--bench", '[1, 2]',
         'expected an object whose "sections" maps section names to '
         'objects'),
        ("--metrics", '[{"type": "meta"}]',
         "line 1 is not a JSON object (a metrics file holds one object "
         "per line)"),
        ("--trajectory", '{"sections": {}}\n[1]\n',
         "line 2 is not a JSON object (a trajectory holds one object per "
         "line)"),
        ("--trajectory", '{"sections": {}}\n{"sections": {"a": 3}}\n',
         'row 2: expected an object whose "sections" maps section names '
         'to objects'),
    ])
    def test_malformed_report_input_exits_two_with_one_line(
            self, flag, content, message, tmp_path, capsys):
        source = tmp_path / "input.json"
        source.write_text(content)
        output = tmp_path / "report.html"
        assert main(["report", flag, str(source), "-o", str(output)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"report: {source}: {message}"]
        assert captured.out == ""
        assert not output.exists()

    def test_dynamic_smoke(self, capsys):
        assert main(["--instructions", "6000", "dynamic",
                     "--benchmarks", "compress"]) == 0
        assert "trajectory" in capsys.readouterr().out

    def test_analyze_human_report(self, capsys):
        assert main(["analyze", "compress"]) == 0
        out = capsys.readouterr().out
        assert "static analysis: compress" in out
        assert "static region seeds" in out
        # Generated code carries INFO findings only (filler dead
        # stores); no error- or warning-severity lines.
        assert "error at" not in out
        assert "warning" not in out

    def test_analyze_json(self, capsys):
        import json

        from repro.static.report import STATIC_SCHEMA_VERSION

        assert main(["analyze", "compress", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "compress"
        assert payload["schema_version"] == STATIC_SCHEMA_VERSION
        assert all(f["severity"] == "info" for f in payload["findings"])
        assert payload["summary"]["static_seeds"] == len(payload["seeds"])

    def test_predict_human_report(self, capsys):
        assert main(["predict", "compress"]) == 0
        out = capsys.readouterr().out
        assert "static coverage prediction: compress" in out
        assert "trace start points" in out
        assert "exploration complete" in out
        assert "preconstruction regions" in out

    def test_predict_json_matches_golden(self, capsys):
        import json
        from pathlib import Path

        from repro.static.report import STATIC_SCHEMA_VERSION

        assert main(["predict", "compress", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "compress"
        assert payload["schema_version"] == STATIC_SCHEMA_VERSION
        assert payload["complete"] is True
        golden = json.loads(
            (Path(__file__).parent / "golden"
             / "predict_spec95.json").read_text())
        summary = {k: v for k, v in payload.items()
                   if k in golden["compress"]}
        assert summary == golden["compress"]

    def test_predict_json_deterministic(self, capsys):
        assert main(["predict", "gcc", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["predict", "gcc", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_point_static_seed(self, capsys):
        assert main(["--instructions", "4000", "point", "compress",
                     "--tc", "64", "--pb", "32", "--static-seed"]) == 0
        assert "buffer_hits" in capsys.readouterr().out

    def test_instructions_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4000")
        assert main(["point", "compress", "--tc", "64"]) == 0
        out = capsys.readouterr().out
        assert "4000.000" in out

    def test_instructions_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "9999999")
        assert main(["--instructions", "4000", "point", "compress",
                     "--tc", "64"]) == 0
        assert "4000.000" in capsys.readouterr().out


ALL_ARGS = ["--instructions", "4000", "all", "--benchmarks", "compress",
            "--jobs", "2"]


class TestRunnerCLI:
    def test_figure5_jobs_matches_serial(self, capsys):
        assert main(["--instructions", "4000", "--no-cache", "figure5",
                     "--benchmarks", "compress"]) == 0
        serial = capsys.readouterr().out
        assert main(["--instructions", "4000", "--no-cache", "figure5",
                     "--benchmarks", "compress", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_all_warm_rerun_is_identical_and_runs_nothing(
            self, capsys, tmp_path):
        report = tmp_path / "timing.json"
        args = ALL_ARGS + ["--timing-report", str(report)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "Figure 5" in cold and "Table 1" in cold
        assert "Figure 6" in cold and "Figure 8" in cold

        import json

        cold_report = json.loads(report.read_text())
        assert cold_report["executed"] > 0

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        warm_report = json.loads(report.read_text())
        assert warm_report["executed"] == 0
        assert warm_report["cache_hits"] == warm_report["unique"]

    def test_all_no_cache_matches_cached(self, capsys):
        assert main(ALL_ARGS) == 0
        cached = capsys.readouterr().out
        assert main(["--instructions", "4000", "--no-cache", "all",
                     "--benchmarks", "compress"]) == 0
        assert capsys.readouterr().out == cached

    def test_all_matches_individual_commands(self, capsys):
        assert main(["--instructions", "4000", "--no-cache", "tables",
                     "--benchmarks", "compress"]) == 0
        tables = capsys.readouterr().out
        assert main(ALL_ARGS) == 0
        assert tables.strip() in capsys.readouterr().out

    def test_cache_dir_flag(self, capsys, tmp_path):
        custom = tmp_path / "elsewhere"
        assert main(["--instructions", "4000", "--cache-dir", str(custom),
                     "tables", "--benchmarks", "compress"]) == 0
        capsys.readouterr()
        assert any(custom.rglob("*.json"))

    def test_cache_command(self, capsys, tmp_path):
        assert main(ALL_ARGS) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert main(["cache", "--clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_cache_entry_details_and_last_run(self, capsys):
        assert main(["--instructions", "4000", "tables",
                     "--benchmarks", "gcc"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "gcc tc=" in out            # per-entry spec label
        from repro import __version__
        assert f"v{__version__}" in out    # per-entry package version
        assert "last run:   tables" in out
        assert "cache hits" in out


class TestObservabilityCLI:
    def test_stats_human(self, capsys):
        assert main(["--instructions", "4000", "stats", "compress"]) == 0
        out = capsys.readouterr().out
        assert "events observed" in out
        assert "trace_misses_per_ki" in out
        assert "construction_latency" in out
        assert "idle_burst_length" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["--instructions", "4000", "stats", "compress",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["benchmark"] == "compress"
        assert payload["intervals"]
        assert set(payload["histograms"]) == {
            "trace_length", "construction_latency",
            "buffer_occupancy", "idle_burst_length"}

    def test_trace_exports_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        assert main(["--instructions", "4000", "trace", "compress",
                     "--out", str(out_path),
                     "--events", str(events_path),
                     "--metrics", str(metrics_path)]) == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert events_path.read_text().count("\n") > 0
        assert json.loads(metrics_path.read_text()
                          .splitlines()[0])["type"] == "meta"

    def test_stats_json_dump_flag(self, capsys, tmp_path):
        import json

        dump = tmp_path / "points.json"
        assert main(["--instructions", "4000", "--no-cache", "figure5",
                     "--benchmarks", "compress",
                     "--stats-json", str(dump)]) == 0
        capsys.readouterr()
        rows = json.loads(dump.read_text())
        assert len(rows) == 20  # the Figure-5 panel for one benchmark
        assert all({"spec", "label", "metrics"} <= set(row)
                   for row in rows)
        assert "trace_misses_per_ki" in rows[0]["metrics"]

    def test_verbosity_flags_accepted(self, capsys):
        assert main(["-v", "--instructions", "4000", "point",
                     "compress", "--tc", "64"]) == 0
        capsys.readouterr()
        assert main(["--log-level", "debug", "--instructions", "4000",
                     "point", "compress", "--tc", "64"]) == 0
        capsys.readouterr()


class TestBenchCheck:
    def test_check_bench_passes_within_tolerance(self):
        from repro.analysis import check_bench

        reference = {"mode": "quick",
                     "sections": {"figure5": {"current_seconds": 10.0}}}
        payload = {"mode": "quick",
                   "sections": {"figure5": {"current_seconds": 12.0}}}
        assert check_bench(payload, reference, tolerance=0.5) == []

    def test_check_bench_flags_regression(self):
        from repro.analysis import check_bench

        reference = {"mode": "quick",
                     "sections": {"figure5": {"current_seconds": 10.0}}}
        payload = {"mode": "quick",
                   "sections": {"figure5": {"current_seconds": 16.0}}}
        problems = check_bench(payload, reference, tolerance=0.5)
        assert problems and "figure5" in problems[0]

    def test_check_bench_mode_and_section_mismatches(self):
        from repro.analysis import check_bench

        reference = {"mode": "full",
                     "sections": {"figure5": {"current_seconds": 10.0},
                                  "tables": {"current_seconds": 1.0}}}
        assert check_bench({"mode": "quick", "sections": {}}, reference)
        payload = {"mode": "full",
                   "sections": {"figure5": {"current_seconds": 10.0},
                                "extra": {"current_seconds": 1.0}}}
        problems = check_bench(payload, reference)
        assert any("tables" in p for p in problems)
        assert any("extra" in p for p in problems)
        import pytest

        with pytest.raises(ValueError):
            check_bench(payload, reference, tolerance=-1)


class TestFuzzCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["--no-cache", "fuzz", "--seeds", "2",
                     "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "all oracles held" in out

    def test_json_output(self, capsys):
        import json

        assert main(["--no-cache", "fuzz", "--seeds", "2",
                     "--budget", "3000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == 2
        assert payload["failures"] == []

    def test_oracle_subset_and_seed_base(self, capsys):
        assert main(["--no-cache", "fuzz", "--seeds", "2",
                     "--seed-base", "10", "--budget", "3000",
                     "--oracle", "conservation", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["seed_base"] == 10
        assert payload["oracles"] == ["conservation"]

    def test_warm_rerun_hits_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "fuzz-cache")
        assert main(["--cache-dir", cache_dir, "fuzz", "--seeds", "2",
                     "--budget", "3000", "--json"]) == 0
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "fuzz", "--seeds", "2",
                     "--budget", "3000", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_hits"] == 2

    def test_broken_counter_exits_nonzero(self, capsys, monkeypatch,
                                          tmp_path):
        from repro.sim.frontend_runner import FrontendSimulation

        original = FrontendSimulation._slow_path

        def corrupted(self, *args):
            cycles = original(self, *args)
            self.stats.slow_path_traces -= 1
            return cycles

        monkeypatch.setattr(FrontendSimulation, "_slow_path", corrupted)
        failures = tmp_path / "failures"
        assert main(["--no-cache", "fuzz", "--seeds", "1",
                     "--budget", "3000",
                     "--failures-dir", str(failures)]) == 1
        out = capsys.readouterr().out
        assert "failing case(s)" in out
        assert list(failures.glob("repro_fuzz_*.py"))

    def test_unknown_oracle_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["fuzz", "--oracle", "nope"])


class TestCompareCLI:
    def test_compare_table(self, capsys):
        assert main(["--instructions", "4000", "--no-cache", "compare",
                     "--benchmarks", "compress", "--pb", "64"]) == 0
        out = capsys.readouterr().out
        assert "compress (tc=256, 4000 instructions)" in out
        for name in ("baseline", "mana", "nextline", "pmap",
                     "preconstruction"):
            assert name in out
        assert "vs-base" in out

    def test_compare_json_covers_requested_mechanisms(self, capsys):
        import json

        assert main(["--instructions", "4000", "--no-cache", "compare",
                     "--benchmarks", "compress",
                     "--mechanisms", "preconstruction,nextline",
                     "--pb", "64", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["mechanism"] for row in rows} \
            == {"baseline", "preconstruction", "nextline"}

    def test_compare_unknown_mechanism_errors_cleanly(self, capsys):
        assert main(["--instructions", "4000", "--no-cache", "compare",
                     "--benchmarks", "compress",
                     "--mechanisms", "markov"]) == 2
        err = capsys.readouterr().err
        assert "unknown mechanism" in err


    def test_compare_zero_budget_errors_cleanly(self, capsys):
        assert main(["--instructions", "4000", "--no-cache", "compare",
                     "--benchmarks", "gcc", "--mechanisms", "mana",
                     "--pb", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "pb_sizes" in captured.err

    def test_compare_budget_the_buffer_ways_do_not_divide(self, capsys):
        assert main(["--instructions", "4000", "--no-cache", "compare",
                     "--benchmarks", "gcc", "--pb", "33"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "pb_sizes" in captured.err and "2 ways" in captured.err

def bench_payload(seconds=16.0):
    return {"schema": 2, "mode": "quick", "jobs": 1,
            "sections": {"figure5": {"specs": 4,
                                     "current_seconds": seconds}},
            "total": {"current_seconds": seconds}}


class TestBenchCheckCLI:
    def test_missing_reference_names_the_file(self, capsys, tmp_path):
        missing = tmp_path / "nope" / "ref.jsonl"
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--output", str(out_path),
                     "--check", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "reference report not found" in err
        assert str(missing) in err

    def check_rejects(self, capsys, monkeypatch, tmp_path, reference):
        monkeypatch.setattr("repro.analysis.bench.run_bench",
                            lambda **kwargs: bench_payload())
        assert main(["bench", "--quick", "--no-trajectory",
                     "--output", str(tmp_path / "bench.json"),
                     "--check", str(reference)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"bench --check: no 'quick' rows in trajectory {reference}"]
        assert captured.out == ""

    def test_malformed_reference_exits_one_naming_the_path(
            self, capsys, monkeypatch, tmp_path):
        reference = tmp_path / "ref.json"
        reference.write_text('{"mode": "quick", "sections": {\n')
        self.check_rejects(capsys, monkeypatch, tmp_path, reference)

    def test_old_report_format_reference_exits_one(
            self, capsys, monkeypatch, tmp_path):
        import json

        # A pretty-printed bench report is not a trajectory: none of
        # its lines is a row, whatever its mode.
        reference = tmp_path / "BENCH_quick.json"
        reference.write_text(json.dumps(
            {"schema": 1, "mode": "quick", "jobs": 1,
             "sections": {"figure5": {"specs": 40,
                                      "current_seconds": 3.87}}},
            indent=2, sort_keys=True))
        self.check_rejects(capsys, monkeypatch, tmp_path, reference)

    def test_check_failure_names_the_regression(self, capsys, tmp_path,
                                                 monkeypatch):
        from repro.analysis import append_trajectory, read_trajectory

        monkeypatch.setattr("repro.analysis.bench.run_bench",
                            lambda **kwargs: bench_payload(16.0))
        trajectory = tmp_path / "hist.jsonl"
        append_trajectory(bench_payload(10.0), trajectory, commit="aaa1111")
        # The reference is the row recorded before this run: checked
        # against itself the appended 16 s run would pass.
        assert main(["bench", "--quick",
                     "--output", str(tmp_path / "bench.json"),
                     "--trajectory", str(trajectory),
                     "--check", str(trajectory)]) == 1
        err = capsys.readouterr().err
        assert ("bench regression: figure5: 16.00s exceeds 10.00s +50% "
                "(15.00s)") in err
        assert [row["commit"] for row in read_trajectory(trajectory)][0] \
            == "aaa1111"
        assert len(read_trajectory(trajectory)) == 2

    def test_committed_trajectory_is_the_ci_reference(self):
        from repro.analysis import TRAJECTORY_FILE, trajectory_reference

        root = Path(__file__).resolve().parent.parent
        reference = trajectory_reference(root / TRAJECTORY_FILE, "quick")
        assert reference == {
            "mode": "quick",
            "sections": {"figure5": {"current_seconds": 3.87,
                                     "specs": 40}}}


class TestBenchFormatting:
    def test_format_bench_tolerates_untimeable_sections(self):
        from repro.analysis import format_bench

        payload = {"mode": "quick", "jobs": 1,
                   "sections": {"tables": {"specs": 3,
                                           "current_seconds": 0.0}},
                   "total": {"current_seconds": 0.0}}
        assert format_bench(payload).splitlines() == [
            "repro bench (quick, jobs=1)",
            "  tables      3 specs:     0.00s",
            "  total                    0.00s"]

    def test_check_bench_reports_missing_sections_mapping(self):
        from repro.analysis import check_bench

        reference = {"mode": "quick",
                     "sections": {"figure5": {"current_seconds": 1.0}}}
        assert check_bench({"mode": "quick"}, reference) \
            == ["payload has no 'sections' mapping"]

    def test_payload_carries_seconds_only(self, monkeypatch):
        from repro.analysis import run_bench
        from repro.runner import ExperimentSpec

        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              pb_entries=0, instructions=2000)
        monkeypatch.setattr("repro.analysis.bench.bench_sections",
                            lambda quick: [("figure5", [spec])])
        payload = run_bench(quick=True)
        assert payload["schema"] == 2
        assert set(payload) == {"schema", "mode", "jobs", "instructions",
                                "sections", "total", "timing_reports"}
        assert set(payload["sections"]["figure5"]) \
            == {"specs", "current_seconds"}
        assert set(payload["total"]) == {"current_seconds"}


class TestCacheStaleTempsCLI:
    def test_cache_reports_and_clears_stranded_temps(self, capsys,
                                                     tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "last_run.tmp.4242").write_text("{ half a tally")
        assert main(["--cache-dir", str(cache_dir), "cache"]) == 0
        out = capsys.readouterr().out
        assert "stale temp files: 1" in out
        assert main(["--cache-dir", str(cache_dir), "cache",
                     "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["--cache-dir", str(cache_dir), "cache"]) == 0
        assert "stale temp" not in capsys.readouterr().out
