"""Tests for the stable ``repro.api`` facade."""

from repro import api


class TestSurface:
    def test_runner_names(self):
        for name in ("ExperimentSpec", "RunResult", "ExperimentRunner",
                     "ResultCache", "StreamCache", "TimingReport",
                     "run_point", "sweep", "resolve_instructions",
                     "DEFAULT_INSTRUCTIONS"):
            assert hasattr(api, name), name

    def test_simulation_names(self):
        for name in ("run_frontend", "run_processor", "FrontendConfig", "ProcessorConfig",
                     "DynamicPartitionConfig", "build_workload", "generate",
                     "SPEC95_NAMES", "assemble", "ProgramImage",
                     "analyze_image"):
            assert hasattr(api, name), name

    def test_exhibit_names(self):
        for name in ("EXHIBITS", "format_figure5", "format_figure6",
                     "format_figure8", "format_all_tables"):
            assert hasattr(api, name), name
        # Each was specs -> sweep -> assemble, which EXHIBITS now does.
        for name in ("figure5_sweep", "figure6", "figure8",
                     "compute_tables"):
            assert name not in api.__all__, name
        assert list(api.EXHIBITS) == ["figure5", "tables", "figure6",
                                      "figure8", "dynamic"]

    def test_all_is_accurate(self):
        for name in api.__all__:
            assert hasattr(api, name), name


class TestBehaviour:
    def test_run_point_and_sweep(self):
        spec = api.ExperimentSpec(benchmark="compress", tc_entries=64,
                                  pb_entries=32, instructions=4_000)
        result = api.run_point(spec)
        assert result.spec is spec
        assert result.metrics["trace_misses_per_ki"] >= 0

        results = api.sweep([spec, spec.replace(pb_entries=0)])
        assert [r.spec for r in results] == [spec, spec.replace(pb_entries=0)]

    def test_analyze(self):
        report = api.analyze("compress")
        assert report.procedures > 0
        assert report.basic_blocks > 0
        assert report.ok

    def test_analyze_workload_seed(self):
        base = api.analyze("compress")
        reseeded = api.analyze("compress", workload_seed=99)
        assert (base.basic_blocks, base.call_sites) != (
            reseeded.basic_blocks, reseeded.call_sites)
