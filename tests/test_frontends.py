"""Tests for the competing-frontend zoo (`repro.frontends`)."""

import pytest

from repro.branch import BimodalPredictor
from repro.caches import ICacheConfig, InstructionCache
from repro.core import PreconstructionConfig
from repro.engine import FunctionalEngine
from repro.frontends import (
    FrontendMechanism,
    LinePrefetcher,
    ManaPrefetcher,
    MechanismContext,
    NextLinePrefetcher,
    PreconstructionMechanism,
    ProgramMapFetcher,
    create_mechanism,
    mechanism_names,
    register_mechanism,
)
from repro.frontends.base import _REGISTRY
from repro.runner import build_frontend_config
from repro.sim import FrontendSimulation, run_frontend
from repro.trace import (
    SelectionConfig,
    TraceCache,
    TraceCacheConfig,
    traces_of_stream,
)
from repro.workloads import build_workload

INSTRUCTIONS = 8_000


@pytest.fixture(scope="module")
def compress():
    workload = build_workload("compress")
    stream = FunctionalEngine(workload.image).run(INSTRUCTIONS)
    return workload.image, stream


@pytest.fixture(scope="module")
def traces(compress):
    _, stream = compress
    return traces_of_stream(stream)


def make_context(image, budget=64):
    return MechanismContext(
        image=image, icache=InstructionCache(ICacheConfig()),
        bimodal=BimodalPredictor(entries=4096),
        trace_cache=TraceCache(TraceCacheConfig()),
        selection=SelectionConfig(), budget_entries=budget,
        static_seed=False, preconstruction=PreconstructionConfig())


class TestRegistry:
    def test_registered_names(self):
        assert mechanism_names() == ("mana", "nextline", "pmap",
                                     "preconstruction")

    def test_unknown_mechanism_raises(self, compress):
        image, _ = compress
        with pytest.raises(ValueError, match="unknown frontend mechanism"):
            create_mechanism("markov", make_context(image))

    def test_empty_name_rejected(self):
        class Nameless(FrontendMechanism):
            @classmethod
            def build(cls, context):
                return None

            def observe_dispatch(self, trace):
                pass

        with pytest.raises(ValueError, match="non-empty name"):
            register_mechanism(Nameless)

    def test_duplicate_name_rejected(self):
        class Imposter(FrontendMechanism):
            name = "nextline"

            @classmethod
            def build(cls, context):
                return None

            def observe_dispatch(self, trace):
                pass

        with pytest.raises(ValueError, match="already registered"):
            register_mechanism(Imposter)

    def test_reregistering_same_class_is_idempotent(self):
        assert register_mechanism(NextLinePrefetcher) is NextLinePrefetcher
        assert _REGISTRY["nextline"] is NextLinePrefetcher

    def test_zero_budget_means_unconfigured(self, compress):
        image, _ = compress
        for name in mechanism_names():
            assert create_mechanism(name, make_context(image, 0)) is None

    def test_build_types(self, compress):
        image, _ = compress
        expected = {"mana": ManaPrefetcher, "nextline": NextLinePrefetcher,
                    "pmap": ProgramMapFetcher}
        for name, cls in expected.items():
            mechanism = create_mechanism(name, make_context(image, 64))
            assert isinstance(mechanism, cls)
            assert mechanism.name == name
            assert mechanism.icache_client == name


class TestTraceLines:
    def test_lines_are_distinct_and_first_touch_ordered(self, traces):
        trace = max(traces, key=lambda t: len(t.pcs))
        lines = trace.lines(64)
        assert len(lines) == len(set(lines))
        assert all(addr % 64 == 0 for addr in lines)
        # First line covers the trace's first pc.
        assert lines[0] == trace.pcs[0] - trace.pcs[0] % 64

    def test_lines_memoized(self, traces):
        trace = traces[0]
        assert trace.lines(64) is trace.lines(64)

    def test_lines_cover_every_pc(self, traces):
        for trace in traces[:50]:
            lines = set(trace.lines(64))
            assert all(pc - pc % 64 in lines for pc in trace.pcs)


class TestLinePrefetcher:
    def make(self, budget=4):
        icache = InstructionCache(ICacheConfig())

        class Probe(LinePrefetcher):
            name = "probe"

            @classmethod
            def build(cls, context):  # pragma: no cover - not registered
                return None

            def observe_dispatch(self, trace):
                pass

        return Probe(icache, budget)

    def test_enqueue_deduplicates(self):
        prefetcher = self.make()
        prefetcher.enqueue_line(0x1000)
        prefetcher.enqueue_line(0x1000)
        assert prefetcher.pending() == 1
        assert prefetcher.lines_requested == 1

    def test_queue_bounded_by_budget(self):
        prefetcher = self.make(budget=2)
        for i in range(5):
            prefetcher.enqueue_line(0x1000 + i * 64)
        assert prefetcher.pending() == 2

    def test_tick_issues_one_line_per_idle_cycle(self):
        prefetcher = self.make()
        for i in range(3):
            prefetcher.enqueue_line(0x1000 + i * 64)
        prefetcher.tick(2)
        assert prefetcher.pending() == 1
        assert prefetcher.lines_prefetched == 2

    def test_tick_skips_resident_lines(self):
        prefetcher = self.make()
        prefetcher.icache.fetch_line(0x1000, "slow_path", instructions=0)
        prefetcher.enqueue_line(0x1000)
        prefetcher.tick(4)
        assert prefetcher.lines_prefetched == 0
        assert prefetcher.pending() == 0

    def test_prefetched_lines_become_resident(self):
        prefetcher = self.make()
        prefetcher.enqueue_line(0x2000)
        prefetcher.tick(1)
        assert prefetcher.icache.contains_line(0x2000)


class TestMechanismBehaviour:
    def test_nextline_enqueues_sequential_lines(self, compress, traces):
        image, _ = compress
        mechanism = create_mechanism("nextline", make_context(image, 64))
        trace = traces[0]
        mechanism.on_slow_path(trace)
        assert 0 < mechanism.pending() <= 4
        last_line = trace.pcs[-1] - trace.pcs[-1] % 64
        assert all(line > last_line for line in mechanism._queue)

    def test_nextline_ignores_dispatch(self, compress, traces):
        image, _ = compress
        mechanism = create_mechanism("nextline", make_context(image, 64))
        mechanism.observe_dispatch(traces[0])
        assert mechanism.pending() == 0

    def test_mana_records_and_replays(self, compress, traces):
        image, _ = compress
        mechanism = create_mechanism("mana", make_context(image, 64))
        for trace in traces:
            mechanism.observe_dispatch(trace)
        assert mechanism.records_held > 0
        # The dispatch stream revisits regions, so records replay.
        assert mechanism.records_replayed > 0
        assert mechanism.lines_requested > 0

    def test_mana_splits_budget(self, compress):
        image, _ = compress
        mechanism = create_mechanism("mana", make_context(image, 64))
        assert mechanism._record_capacity == 32
        assert mechanism.budget_entries == 32

    def test_pmap_walks_successors(self, compress, traces):
        image, _ = compress
        mechanism = create_mechanism("pmap", make_context(image, 64))
        for trace in traces[:20]:
            mechanism.observe_dispatch(trace)
        assert mechanism.blocks_walked > 0
        assert mechanism.lines_requested > 0

    def test_pmap_cfg_is_lazy(self, compress):
        image, _ = compress
        mechanism = create_mechanism("pmap", make_context(image, 64))
        assert mechanism._cfg is None
        assert mechanism.cfg is mechanism.cfg
        assert mechanism._cfg is not None


class TestSeamWiring:
    """The mechanisms through the full frontend simulation."""

    @pytest.mark.parametrize("name", ["mana", "nextline", "pmap"])
    def test_prefetchers_run_and_account(self, compress, name):
        image, stream = compress
        config = build_frontend_config(128, 64, mechanism=name)
        result = run_frontend(image, config, stream=stream)
        stats = result.stats
        assert result.mechanism is not None
        assert result.mechanism.name == name
        assert result.preconstruction is None
        assert stats.instructions == len(stream)
        assert stats.trace_hits + stats.trace_misses == stats.traces
        # Prefetchers never promote traces: no buffer hits.
        assert stats.buffer_hits == 0

    def test_preconstruction_through_seam(self, compress):
        image, stream = compress
        config = build_frontend_config(128, 64)
        result = run_frontend(image, config, stream=stream)
        assert isinstance(result.mechanism, PreconstructionMechanism)
        assert result.preconstruction is result.mechanism
        assert result.stats.buffer_hits > 0

    def test_one_budget_sizes_every_mechanism(self, compress):
        # mechanism_budget is the one storage currency: 64 entries are
        # 64 preconstruction-buffer entries, a 64-entry request queue,
        # or MANA's record table and queue sharing 64 entries.
        image, _ = compress
        point = {name: FrontendSimulation(
                     image, build_frontend_config(128, 64, mechanism=name))
                 for name in mechanism_names()}
        assert point["preconstruction"].precon.buffers.entries == 64
        assert point["nextline"].mechanism.budget_entries == 64
        assert point["pmap"].mechanism.budget_entries == 64
        mana = point["mana"].mechanism
        assert mana._record_capacity + mana.budget_entries == 64

    def test_zero_budget_is_baseline_for_every_mechanism(self, compress):
        image, stream = compress
        summaries = []
        for name in mechanism_names():
            config = build_frontend_config(128, 0, mechanism=name)
            result = run_frontend(image, config, stream=stream)
            assert result.mechanism is None
            summaries.append(result.stats.summary())
        assert all(s == summaries[0] for s in summaries)

    def test_only_preconstruction_trains_the_bimodal_table(self, compress):
        # The engine is the table's only reader, so only its points
        # train it; a baseline point leaves every counter initial.
        image, stream = compress
        untrained = BimodalPredictor()._table
        baseline = FrontendSimulation(image, build_frontend_config(128, 0))
        baseline.run(stream)
        assert baseline.bimodal._table == untrained
        precon = FrontendSimulation(image, build_frontend_config(128, 64))
        precon.run(stream)
        assert precon.bimodal._table != untrained

    def test_prefetch_traffic_reported_per_client(self, compress):
        image, stream = compress
        config = build_frontend_config(128, 64, mechanism="nextline")
        result = run_frontend(image, config, stream=stream)
        mechanism = result.mechanism
        assert mechanism.lines_prefetched > 0
        traffic = result.icache.traffic["nextline"]
        assert traffic.lines_accessed == mechanism.lines_prefetched
