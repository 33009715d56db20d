"""Tests for the dynamic TC/PB partitioning extension."""

import pytest

from repro.runner import build_frontend_config
from repro.engine import FunctionalEngine
from repro.sim import (
    DynamicPartitionConfig,
    DynamicPartitionFrontend,
    run_frontend,
)
from repro.workloads import build_workload

INSTRUCTIONS = 25_000


@pytest.fixture(scope="module")
def gcc():
    workload = build_workload("gcc")
    return workload.image, FunctionalEngine(workload.image).run(INSTRUCTIONS)


class TestDynamicPartition:
    def test_requires_preconstruction(self, gcc):
        image, _ = gcc
        with pytest.raises(ValueError):
            DynamicPartitionFrontend(image, build_frontend_config(512, 0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicPartitionConfig(total_entries=128, initial_pb_entries=256)
        with pytest.raises(ValueError):
            DynamicPartitionConfig(step_entries=0)
        with pytest.raises(ValueError):
            DynamicPartitionConfig(hold_tolerance=-0.1)

    def test_partition_conserves_total(self, gcc):
        image, stream = gcc
        partition = DynamicPartitionConfig(epoch_traces=300)
        sim = DynamicPartitionFrontend(image, build_frontend_config(384, 128),
                                       partition)
        sim.run(stream)
        assert (sim.trace_cache.config.entries + sim.pb_entries
                == partition.total_entries)

    def test_bounds_respected(self, gcc):
        image, stream = gcc
        partition = DynamicPartitionConfig(
            epoch_traces=200, min_pb_entries=64, max_pb_entries=192)
        sim = DynamicPartitionFrontend(image, build_frontend_config(384, 128),
                                       partition)
        sim.run(stream)
        for event in sim.events:
            assert 64 <= event.pb_entries <= 192

    def test_migration_preserves_traces(self, gcc):
        """Repartitioning keeps resident traces (up to new capacity)."""
        image, stream = gcc
        sim = DynamicPartitionFrontend(image, build_frontend_config(384, 128),
                                       DynamicPartitionConfig())
        # Warm up, then force a repartition and compare occupancy.
        sim.run(stream[:8000])
        before = sim.trace_cache.occupancy()
        sim._apply_partition(sim.pb_entries + 32)
        after = sim.trace_cache.occupancy()
        # The TC shrank by 32 entries; at most that many traces lost.
        assert after >= before - 32 - sim.trace_cache.config.ways

    def test_events_recorded(self, gcc):
        image, stream = gcc
        result = run_frontend(
            image, build_frontend_config(384, 128), stream=stream,
            partition=DynamicPartitionConfig(epoch_traces=300))
        events = result.partition_events
        assert events
        assert all(event.epoch_miss_rate >= 0 for event in events)
        assert events[0].at_traces >= 300

    def test_runs_match_normal_accounting(self, gcc):
        image, stream = gcc
        result = run_frontend(image, build_frontend_config(384, 128),
                              stream=stream,
                              partition=DynamicPartitionConfig())
        stats = result.stats
        assert stats.instructions == len(stream)
        assert stats.trace_hits + stats.trace_misses == stats.traces

    def test_run_frontend_partition_matches_direct_simulation(self, gcc):
        """``run_frontend(partition=)`` drives the partitioned frontend
        and carries its epoch decisions on the result."""
        image, stream = gcc
        partition = DynamicPartitionConfig(epoch_traces=300)
        direct = DynamicPartitionFrontend(
            image, build_frontend_config(384, 128), partition).run(stream)
        fresh = run_frontend(image, build_frontend_config(384, 128),
                             stream=stream, partition=partition)
        assert fresh.partition_events == direct.partition_events
        assert len(fresh.partition_events) > 1
        assert fresh.stats.summary() == direct.stats.summary()
