"""Tests for the frontend timing simulation (Figure 5 / Tables metrics)."""

import pytest

from repro.engine import FunctionalEngine
from repro.sim import FrontendConfig, FrontendSimulation, run_frontend
from repro.trace import TraceCacheConfig
from repro.workloads import build_workload

INSTRUCTIONS = 30_000


@pytest.fixture(scope="module")
def gcc():
    workload = build_workload("gcc")
    stream = FunctionalEngine(workload.image).run(INSTRUCTIONS)
    return workload.image, stream


def _run(image, stream, tc=256, pb=0, **kwargs):
    config = FrontendConfig(trace_cache=TraceCacheConfig(entries=tc),
                            mechanism_budget=pb, **kwargs)
    return run_frontend(image, config, INSTRUCTIONS, stream=stream)


class TestBaselineFrontend:
    def test_accounting_conservation(self, gcc):
        image, stream = gcc
        stats = _run(image, stream).stats
        assert stats.instructions == len(stream)
        assert stats.trace_hits + stats.trace_misses == stats.traces
        assert stats.slow_path_traces == stats.trace_misses
        assert stats.ntp_correct + stats.ntp_wrong + stats.ntp_none \
            == stats.traces

    def test_bigger_cache_fewer_misses(self, gcc):
        image, stream = gcc
        small = _run(image, stream, tc=64).stats
        large = _run(image, stream, tc=1024).stats
        assert large.trace_misses < small.trace_misses

    def test_miss_traffic_consistency(self, gcc):
        """Slow-path instruction supply equals the instructions of the
        missed traces; misses-from-lines never exceed line accesses."""
        image, stream = gcc
        stats = _run(image, stream).stats
        assert stats.slow_instructions <= stats.instructions
        assert stats.slow_line_misses <= stats.slow_line_accesses
        assert (stats.slow_instructions_from_misses
                <= stats.slow_instructions)

    def test_predictor_learns(self, gcc):
        image, stream = gcc
        stats = _run(image, stream).stats
        assert stats.ntp_accuracy > 0.5

    def test_deterministic(self, gcc):
        image, stream = gcc
        first = _run(image, stream).stats.summary()
        second = _run(image, stream).stats.summary()
        assert first == second


class TestPreconstructionFrontend:
    def test_reduces_misses_at_same_tc(self, gcc):
        image, stream = gcc
        base = _run(image, stream, tc=256).stats
        pre = _run(image, stream, tc=256, pb=256).stats
        assert pre.trace_misses < base.trace_misses
        assert pre.buffer_hits > 0

    def test_buffer_hits_bounded_by_saved_misses(self, gcc):
        image, stream = gcc
        base = _run(image, stream, tc=256).stats
        pre = _run(image, stream, tc=256, pb=256).stats
        # Every avoided miss was supplied by the buffers (promotion also
        # changes downstream cache contents, so this is an inequality
        # in one direction only).
        assert pre.buffer_hits >= base.trace_misses - pre.trace_misses \
            - base.trace_misses * 0.5

    def test_increases_total_icache_misses(self, gcc):
        """Table 2's effect: preconstruction fetches raise total
        I-cache misses."""
        image, stream = gcc
        base = _run(image, stream, tc=256).stats
        pre = _run(image, stream, tc=256, pb=256).stats
        assert pre.icache_misses_per_ki >= base.icache_misses_per_ki

    def test_reduces_slow_path_miss_exposure(self, gcc):
        """Table 3's effect: the slow path sees fewer miss-supplied
        instructions (prefetch side benefit)."""
        image, stream = gcc
        base = _run(image, stream, tc=256).stats
        pre = _run(image, stream, tc=256, pb=256).stats
        assert (pre.icache_miss_instructions_per_ki
                < base.icache_miss_instructions_per_ki)

    def test_idle_cycles_fund_engine(self, gcc):
        image, stream = gcc
        result = _run(image, stream, tc=256, pb=256)
        assert result.stats.idle_cycles > 0
        assert (result.preconstruction.stats.idle_cycles_offered
                == result.stats.idle_cycles)


class TestFrontendEdgeCases:
    def test_empty_stream(self, gcc):
        image, _ = gcc
        result = FrontendSimulation(
            image, FrontendConfig()).run([])
        assert result.stats.traces == 0
        assert result.stats.trace_miss_rate_per_ki == 0.0

    def test_single_instruction_stream(self, gcc):
        image, stream = gcc
        result = FrontendSimulation(image, FrontendConfig()).run(stream[:1])
        assert result.stats.traces == 1
        assert result.stats.instructions == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FrontendConfig(fetch_width=0)
        with pytest.raises(ValueError):
            FrontendConfig(retire_ipc=0)
