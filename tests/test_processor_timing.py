"""Tests for the full-processor timing simulation (Figures 6/8 model)."""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.analysis.figures import figure6_specs, figure8_specs
from repro.caches.dcache import DataCache
from repro.engine import FunctionalEngine
from repro.isa import Kind
from repro.preprocess import Preprocessor
from repro.processor import (
    BackendConfig,
    BackendModel,
    ProcessorConfig,
    ProcessorSimulation,
    run_processor,
)
from repro.processor import timing
from repro.processor.timing import backend_template
from repro.runner.pool import StreamCache
from repro.sim import FrontendConfig
from repro.trace import TraceCacheConfig, traces_of_stream
from repro.vector import build_plan
from repro.workloads import build_workload

INSTRUCTIONS = 25_000
#: The benchmark's ``processor`` budget; its seed 1 runs workload seeds
#: 3, 4 and 5.
BENCH_INSTRUCTIONS = 20_000


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


@pytest.fixture(scope="module")
def bench_streams():
    return StreamCache(BENCH_INSTRUCTIONS)


def _run_on_plan(streams, spec, plan):
    return run_processor(
        streams.image(spec.benchmark, spec.workload_seed),
        spec.processor_config(), spec.instructions,
        stream=streams.stream(spec.benchmark, spec.workload_seed),
        plan=plan)


def _go_points(seed=3):
    return [spec.replace(workload_seed=seed) for spec in dict.fromkeys(
        figure6_specs(BENCH_INSTRUCTIONS, benchmarks=("go",))
        + figure8_specs(BENCH_INSTRUCTIONS, benchmarks=("go",)))]


def _plan_of(streams, spec):
    return streams.plan(spec.benchmark, spec.instructions,
                        spec.processor_config().frontend, spec.workload_seed)


def _fresh_plan(streams, spec):
    """The partition's plan over traces of its own, so no template of
    it has been built yet."""
    frontend = spec.processor_config().frontend
    stream = streams.stream(spec.benchmark, spec.workload_seed)
    return build_plan(traces_of_stream(stream[:spec.instructions],
                                       frontend.selection), frontend)


class TestSharedTemplates:
    """Every processor point on a plan executes the same per-trace
    backend templates (DESIGN §18), built once per partition."""

    def test_each_template_built_once_per_partition(self, bench_streams,
                                                    monkeypatch):
        points = _go_points()
        plan = _fresh_plan(bench_streams, points[0])
        built = Counter()
        template, process = timing.Template, Preprocessor.process

        def counted_template(instructions, intern=None):
            built["templates"] += 1
            return template(instructions, intern)

        def counted_process(trace):
            built["preprocessed"] += 1
            return process(trace)

        monkeypatch.setattr(timing, "Template", counted_template)
        monkeypatch.setattr(Preprocessor, "process", counted_process)
        # Each point twice, preprocessing points first.
        for spec in sorted(points, key=lambda spec: not spec.preprocess) * 2:
            _run_on_plan(bench_streams, spec, plan)
        distinct = {id(trace) for trace in plan.traces}
        # Trace objects of one path share one memo, raw template included.
        paths = {id(trace._memo) for trace in plan.traces}
        ids = {trace.trace_id for trace in plan.traces}
        assert len(points) == 4 and len(ids) < len(paths) < len(distinct)
        assert built == {"templates": len(paths) + len(ids),
                         "preprocessed": len(ids)}
        assert len(plan.templates) == len(ids)

    def test_retained_bytes_per_distinct_trace(self, bench_streams):
        """A go 20k partition retains at most 1,350 bytes of templates per
        distinct trace, raw and preprocessed together, intern table and
        plan dict included (1,311 measured when this bound was set).
        Keeping the preprocessed view tuples as well would add about 400
        bytes more."""
        plan = _fresh_plan(bench_streams, _go_points()[0])
        distinct = list({id(trace): trace
                         for trace in plan.traces}.values())
        gc.collect()  # empties the free lists, so every tuple is counted
        tracemalloc.start()
        try:
            for trace in distinct:
                backend_template(plan, trace, False)
                backend_template(plan, trace, True)
            gc.collect()
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated / len(distinct) <= 1_350


def _tail_and_full(streams, program, seed):
    spec = figure8_specs(BENCH_INSTRUCTIONS, benchmarks=(program,))[2]
    spec = spec.replace(workload_seed=seed)
    plan = _plan_of(streams, spec)
    tail = plan.traces[-1]
    full = next(trace for trace in plan.traces
                if trace.trace_id == tail.trace_id)
    return spec, plan, tail, full


#: Streams of the benchmark's seed 1 whose flushed partial tail shares
#: its trace id with an earlier full trace: (program, workload seed,
#: tail length, full length).
COLLIDING_TAILS = [("go", 3, 15, 14), ("perl", 4, 12, 14), ("perl", 5, 2, 6)]


class TestKnownDefects:
    """Two defects kept for result compatibility (DESIGN §18), each
    pinned by a strict xfail that their fix turns into a pass."""

    @pytest.mark.parametrize("program, seed, tail_length, full_length",
                             COLLIDING_TAILS)
    def test_partial_tail_shares_a_full_traces_id(
            self, bench_streams, program, seed, tail_length, full_length):
        _spec, _plan, tail, full = _tail_and_full(bench_streams, program,
                                                  seed)
        assert tail.partial and full is not tail and not full.partial
        assert (len(tail), len(full)) == (tail_length, full_length)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect (DESIGN §18): preprocessed templates are keyed by "
        "trace id, so a flushed partial tail that shares its id with an "
        "earlier full trace executes the full trace's view"))
    def test_partial_tail_executes_its_own_view(self, bench_streams,
                                                monkeypatch):
        executed = []
        execute = BackendModel.execute_trace

        def recording(backend, template, *args):
            executed.append(template)
            return execute(backend, template, *args)

        monkeypatch.setattr(BackendModel, "execute_trace", recording)
        lengths = {}
        for program, seed, _tail_length, _full_length in COLLIDING_TAILS:
            spec, plan, tail, _full = _tail_and_full(bench_streams, program,
                                                     seed)
            assert spec.preprocess
            executed.clear()
            _run_on_plan(bench_streams, spec, plan)
            assert len(executed) == len(plan.traces)
            lengths[program, seed] = (len(executed[-1].ops), len(tail))
        assert all(ran == own for ran, own in lengths.values()), (
            f"(executed, own) tail lengths: {lengths}")

    @pytest.mark.xfail(strict=True, reason=(
        "known defect (DESIGN §18): the backend reads addresses by memory "
        "ordinal from a slice with one slot per instruction; on the first "
        "Figure 6 go point 3,249 of 3,744 accesses get another "
        "instruction's address, and 2,696 one that no load or store of "
        "their trace has"))
    def test_memory_accesses_read_their_own_addresses(self, bench_streams,
                                                      monkeypatch):
        spec = figure6_specs(BENCH_INSTRUCTIONS,
                             benchmarks=("go",))[0].replace(workload_seed=3)
        plan = _plan_of(bench_streams, spec)
        addresses = bench_streams.stream("go", 3).mem_addrs
        # Per occurrence, the addresses of its loads and stores.
        own = []
        offset = 0
        for trace in plan.traces:
            own.append(Counter(
                addresses[offset + i]
                for i, inst in enumerate(trace.instructions)
                if inst.kind is Kind.LOAD or inst.kind is Kind.STORE))
            offset += len(trace)
        accessed: list[Counter] = []
        execute, access = BackendModel.execute_trace, DataCache.access

        def recording_execute(backend, *args):
            accessed.append(Counter())
            return execute(backend, *args)

        def recording_access(dcache, addr, *args):
            accessed[-1][addr] += 1
            return access(dcache, addr, *args)

        monkeypatch.setattr(BackendModel, "execute_trace", recording_execute)
        monkeypatch.setattr(DataCache, "access", recording_access)
        _run_on_plan(bench_streams, spec, plan)
        total = sum(want.total() for want in own)
        wrong = sum((got - want).total() for got, want in zip(accessed, own))
        assert len(accessed) == len(own)
        assert wrong == 0, (
            f"{wrong} of {total} accesses read an address that no load or "
            f"store of their trace has")
