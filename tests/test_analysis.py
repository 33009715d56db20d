"""Tests for the analysis layer: sweeps, tables, figures, charts."""

import pytest

from repro.analysis import (
    Figure5Point,
    StreamCache,
    bar_chart,
    figure5_points,
    figure5_series,
    figure5_specs,
    format_all_tables,
    format_figure5,
    format_figure6,
    format_figure8,
    format_table,
    series_table,
    tables_from_results,
    tables_specs,
)
from repro.analysis.figures import ExtendedPipelineResult, SpeedupResult
from repro.analysis.tables import TableRow
from repro.runner import ExperimentSpec, execute_spec, sweep


@pytest.fixture(scope="module")
def cache():
    # Small budget: these tests exercise plumbing, not statistics.
    return StreamCache(instructions=8_000)


class TestStreamCache:
    def test_streams_are_memoised(self, cache):
        first = cache.stream("compress")
        second = cache.stream("compress")
        assert first is second
        assert len(first) == 8_000

    def test_images_are_memoised(self, cache):
        assert cache.image("compress") is cache.image("compress")

    def test_workload_seed_is_part_of_the_key(self, cache):
        assert cache.image("compress") is not cache.image("compress", 7)


class TestSweepRunners:
    def test_frontend_point(self, cache):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              instructions=8_000)
        metrics = execute_spec(spec, cache).metrics
        assert metrics["instructions"] == 8_000
        assert metrics["traces"] > 0

    def test_processor_point(self, cache):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              kind="processor", instructions=8_000)
        metrics = execute_spec(spec, cache).metrics
        assert metrics["cycles"] > 0
        assert metrics["ipc"] > 0

    def test_loose_config_helpers_are_gone(self):
        import repro.analysis

        assert not hasattr(repro.analysis, "frontend_config")
        assert not hasattr(repro.analysis, "processor_config")

    def test_figure5_sweep_grid(self, cache):
        specs = figure5_specs("compress", cache.instructions)
        assert len(specs) == 20
        corner = [spec for spec in specs
                  if spec.tc_entries <= 128 and spec.pb_entries <= 32]
        points = figure5_points(sweep(corner, stream_cache=cache))
        keys = [(p.tc_entries, p.pb_entries) for p in points]
        assert keys == [(64, 0), (64, 32), (128, 0), (128, 32)]


class TestFigureFormatting:
    def test_figure5_series_reshape(self):
        points = [
            Figure5Point("x", 64, 0, 10.0),
            Figure5Point("x", 128, 0, 8.0),
            Figure5Point("x", 64, 32, 7.0),
        ]
        xs, curves = figure5_series(points)
        assert xs == [64, 96, 128]
        assert curves["tc-only"] == [10.0, None, 8.0]
        assert curves["pb32"] == [None, 7.0, None]
        text = format_figure5("x", points)
        assert "tc-only" in text and "pb32" in text

    def test_figure6_formatting(self):
        results = [SpeedupResult("gcc", 1000, 950)]
        assert results[0].speedup_percent == pytest.approx(5.2631578947)
        assert "gcc" in format_figure6(results)

    def test_figure8_accessors(self):
        result = ExtendedPipelineResult(
            benchmark="go", base_cycles=1000, precon_cycles=960,
            preproc_cycles=900, combined_cycles=850)
        assert result.precon_percent == pytest.approx(4.1666, rel=1e-3)
        assert result.combined_percent > result.preproc_percent
        assert result.synergy == pytest.approx(
            result.combined_percent - result.sum_percent)
        assert "go" in format_figure8([result])


class TestTableFormatting:
    def test_change_percent(self):
        row = TableRow("gcc", baseline=200.0, preconstruction=150.0)
        assert row.change_percent == pytest.approx(-25.0)

    def test_zero_baseline_is_safe(self):
        assert TableRow("x", 0.0, 5.0).change_percent == 0.0

    def test_format_contains_labels(self):
        rows = [TableRow("gcc", 233.0, 181.0)]
        text = format_table(rows, 1)
        assert "Table 1" in text and "gcc" in text

    def test_compute_tables_smoke(self, cache):
        specs = tables_specs(cache.instructions, ("compress",))
        result = tables_from_results(sweep(specs, stream_cache=cache),
                                     ("compress",))
        assert len(result.table1) == 1
        text = format_all_tables(result)
        assert "Table 3" in text


class TestCharts:
    def test_bar_chart_scales(self):
        text = bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="t") == "t"

    def test_series_table_renders_none_as_dash(self):
        text = series_table("x", [1, 2], {"s": [1.0, None]})
        assert "-" in text
