"""Tests for the full-processor timing simulation (Figures 6/8 model)."""

import pytest

from repro.engine import FunctionalEngine
from repro.processor import (
    BackendConfig,
    ProcessorConfig,
    ProcessorSimulation,
    run_processor,
)
from repro.sim import FrontendConfig
from repro.trace import TraceCacheConfig, traces_of_stream
from repro.vector import build_plan
from repro.workloads import build_workload

INSTRUCTIONS = 25_000


@pytest.fixture(scope="module")
def vortex():
    workload = build_workload("vortex")
    stream = FunctionalEngine(workload.image).run(INSTRUCTIONS)
    return workload.image, stream


def _config(tc=256, pb=0, preprocess=False, **backend_kwargs):
    return ProcessorConfig(
        frontend=FrontendConfig(trace_cache=TraceCacheConfig(entries=tc),
                                mechanism_budget=pb),
        backend=BackendConfig(**backend_kwargs), preprocess=preprocess)


class TestProcessorTiming:
    def test_ipc_in_plausible_range(self, vortex):
        image, stream = vortex
        stats = run_processor(image, _config(), INSTRUCTIONS,
                              stream=stream).stats
        # An 8-wide trace processor on integer code: IPC well above a
        # scalar machine, well below the width.
        assert 0.8 < stats.ipc < 6.0

    def test_cycles_monotone_in_cache_size(self, vortex):
        image, stream = vortex
        small = run_processor(image, _config(tc=64), INSTRUCTIONS,
                              stream=stream).stats
        large = run_processor(image, _config(tc=1024), INSTRUCTIONS,
                              stream=stream).stats
        assert large.cycles < small.cycles

    def test_preconstruction_helps_when_misses_dominate(self, vortex):
        image, stream = vortex
        base = run_processor(image, _config(tc=128), INSTRUCTIONS,
                             stream=stream).stats
        pre = run_processor(image, _config(tc=128, pb=128), INSTRUCTIONS,
                            stream=stream).stats
        assert pre.trace_misses < base.trace_misses
        assert pre.cycles < base.cycles

    def test_preprocessing_speeds_up_execution(self, vortex):
        image, stream = vortex
        base = run_processor(image, _config(), INSTRUCTIONS,
                             stream=stream).stats
        prep = run_processor(image, _config(preprocess=True), INSTRUCTIONS,
                             stream=stream).stats
        assert prep.cycles < base.cycles
        # Same frontend behaviour: preprocessing is backend-only.
        assert prep.trace_misses == base.trace_misses

    def test_stats_conservation(self, vortex):
        image, stream = vortex
        stats = run_processor(image, _config(), INSTRUCTIONS,
                              stream=stream).stats
        assert stats.instructions == len(stream)
        assert stats.trace_hits + stats.trace_misses == stats.traces
        assert (stats.ntp_correct + stats.ntp_wrong + stats.ntp_none
                == stats.traces)

    def test_deterministic(self, vortex):
        image, stream = vortex
        a = run_processor(image, _config(tc=128, pb=128), INSTRUCTIONS,
                          stream=stream).stats
        b = run_processor(image, _config(tc=128, pb=128), INSTRUCTIONS,
                          stream=stream).stats
        assert (a.cycles, a.trace_misses, a.buffer_hits) == \
            (b.cycles, b.trace_misses, b.buffer_hits)

    def test_more_pes_do_not_hurt(self, vortex):
        image, stream = vortex
        four = run_processor(image, _config(num_pes=4), INSTRUCTIONS,
                             stream=stream).stats
        eight = run_processor(image, _config(num_pes=8), INSTRUCTIONS,
                              stream=stream).stats
        assert eight.cycles <= four.cycles * 1.02

    def test_mechanism_seam_honours_static_seed(self, vortex):
        from dataclasses import replace

        from repro.frontends import PreconstructionMechanism

        image, stream = vortex
        config = _config(tc=128, pb=128)
        seeded = replace(config, frontend=replace(config.frontend,
                                                  static_seed=True))
        simulation = ProcessorSimulation(image, seeded)
        assert isinstance(simulation.mechanism, PreconstructionMechanism)
        assert simulation.precon is simulation.mechanism
        result = simulation.run(stream[:5_000])
        assert result.preconstruction is simulation.mechanism
        assert result.preconstruction.stats.static_seeds_offered > 0
        plain = ProcessorSimulation(image, config).run(stream[:5_000])
        assert plain.preconstruction.stats.static_seeds_offered == 0
        assert ProcessorSimulation(image, _config()).mechanism is None

    def test_empty_stream(self, vortex):
        image, _ = vortex
        result = ProcessorSimulation(image, _config()).run([])
        assert result.stats.cycles == 0
        assert result.stats.ipc == 0.0


def _plan(stream, frontend):
    return build_plan(traces_of_stream(stream, frontend.selection), frontend)


class TestProcessorPlan:
    def test_shared_plan_matches_own_plan(self, vortex):
        """A plan built for a frontend point with other cache sizes drives
        a processor point to the same result as the point's own plan."""
        image, stream = vortex
        config = _config(tc=128, pb=128, preprocess=True)
        shared = _plan(stream, FrontendConfig(
            trace_cache=TraceCacheConfig(entries=1024)))
        own = run_processor(image, config, INSTRUCTIONS, stream=stream)
        on_shared = run_processor(image, config, INSTRUCTIONS,
                                  stream=stream, plan=shared)
        assert on_shared.stats == own.stats
        assert (on_shared.backend.bus_conflicts
                == own.backend.bus_conflicts)
        assert on_shared.backend.dcache.stats == own.backend.dcache.stats

    def test_rejects_incompatible_plan(self, vortex):
        image, stream = vortex
        plan = _plan(stream, FrontendConfig(bimodal_entries=1024))
        with pytest.raises(ValueError, match="bimodal_entries differs"):
            run_processor(image, _config(), INSTRUCTIONS, stream=stream,
                          plan=plan)

    def test_rejects_plan_of_another_stream(self, vortex):
        image, stream = vortex
        config = _config()
        plan = _plan(stream[:1_000], config.frontend)
        with pytest.raises(ValueError, match="plan partitions 1000 "
                           "instructions but the stream has 25000"):
            ProcessorSimulation(image, config).run(stream, plan)
        with pytest.raises(ValueError, match="plan partitions"):
            run_processor(image, config, INSTRUCTIONS, stream=stream,
                          plan=plan)

    def test_second_run_raises(self, vortex):
        image, stream = vortex
        simulation = ProcessorSimulation(image, _config())
        simulation.run(stream[:2_000])
        with pytest.raises(RuntimeError, match="replays one stream"):
            simulation.run(stream[:2_000])
