"""Tests for the per-point result record, :class:`RunResult`."""

import pytest

from repro.runner import ExperimentSpec, StreamCache, execute_spec


@pytest.fixture(scope="module")
def cache():
    return StreamCache(instructions=6_000)


class TestRecords:
    def test_frontend_record(self, cache):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              pb_entries=32, instructions=6_000)
        record = execute_spec(spec, cache)
        assert record.spec == spec
        assert record.metrics["trace_misses_per_ki"] >= 0
        assert record.metrics["instructions"] == 6_000

    def test_processor_record(self, cache):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              kind="processor", instructions=6_000)
        record = execute_spec(spec, cache)
        assert record.metrics["ipc"] > 0
        assert record.metrics["cycles"] > 0
