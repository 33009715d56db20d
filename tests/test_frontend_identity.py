"""Identity golden for the frontend and processor timing models.

Pins, per simulated point, a digest of everything a refactor of the
dispatch loop could move: the full raw :class:`FrontendStats` record,
the trace-cache and preconstruction-buffer residents left at the end of
the run, and the complete observability event stream.  The points are

* the Figure 5 grid on gcc, go and vortex under two workload seeds;
* every frontend mechanism on compress and gcc;
* one dynamic-partition run (stats, residents and epoch decisions);
* the Figure 6 and Figure 8 processor points on go and perl (stats,
  buffer residents, result-bus conflicts and data-cache counters), each
  on a plan of its own and, in three orders, all on one shared plan.

Every point with a preconstruction engine also pins the engine's full
:class:`PreconstructionStats` record (decode steps, port cycles, region
and duplicate counts), which a change to the trace constructors would
move before anything else.

Regenerate with ``PYTHONPATH=src python tests/test_frontend_identity.py
--record`` only when a change is meant to move simulated results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.figures import figure6_specs, figure8_specs
from repro.analysis.sweeps import figure5_specs
from repro.frontends import mechanism_names
from repro.obs import IntervalMetrics, ObsBus, RingBufferSink
from repro.processor import run_processor
from repro.runner import ExperimentSpec
from repro.runner.pool import StreamCache
from repro.sim import DynamicPartitionConfig, run_frontend

IDENTITY_GOLDEN = Path(__file__).parent / "golden" / "frontend_identity.json"

BUDGET = 4_000
FIGURE5_BENCHMARKS = ("gcc", "go", "vortex")
FIGURE5_SEEDS = (1, 2)
MECHANISM_BENCHMARKS = ("compress", "gcc")
PROCESSOR_BENCHMARKS = ("go", "perl")
DYNAMIC_BUDGET = 12_000
DYNAMIC_PARTITION = DynamicPartitionConfig(epoch_traces=150)


def _identity_points():
    """(key, spec) for every pinned point, in a fixed order."""
    for benchmark in FIGURE5_BENCHMARKS:
        for seed in FIGURE5_SEEDS:
            for spec in figure5_specs(benchmark, BUDGET):
                spec = spec.replace(workload_seed=seed)
                yield f"figure5 {spec.label} seed={seed}", spec
    for benchmark in MECHANISM_BENCHMARKS:
        for mechanism in mechanism_names():
            spec = ExperimentSpec(benchmark=benchmark, tc_entries=64,
                                  pb_entries=64, mechanism=mechanism,
                                  instructions=BUDGET)
            yield f"mechanism {spec.label}", spec
    spec = ExperimentSpec(benchmark="gcc", tc_entries=384, pb_entries=128,
                          kind="dynamic", instructions=DYNAMIC_BUDGET)
    yield f"dynamic {spec.label}", spec
    processor = list(dict.fromkeys(
        figure6_specs(BUDGET, benchmarks=PROCESSOR_BENCHMARKS)
        + figure8_specs(BUDGET, benchmarks=PROCESSOR_BENCHMARKS)))
    for spec in processor:
        yield f"processor {spec.label}", spec


def _trace_id(trace) -> list:
    trace_id = trace.trace_id
    return [trace_id.start_pc, list(trace_id.outcomes)]


def _buffer_residents(engine) -> list:
    if engine is None:
        return []
    return [[_trace_id(trace), region]
            for trace, region in engine.buffers.resident_with_regions()]


def _preconstruction_stats(engine) -> dict | None:
    if engine is None:
        return None
    return dataclasses.asdict(engine.stats)


def _frontend_payload(result) -> dict:
    mechanism = result.mechanism
    return {
        "stats": dataclasses.asdict(result.stats),
        "preconstruction": _preconstruction_stats(result.preconstruction),
        "trace_cache": [_trace_id(trace) for trace in
                        result.trace_cache.resident_traces()],
        "buffers": _buffer_residents(result.preconstruction),
        "lines": [getattr(mechanism, "lines_requested", None),
                  getattr(mechanism, "lines_prefetched", None)],
    }


def _processor_payload(result) -> dict:
    backend = result.backend
    return {"stats": dataclasses.asdict(result.stats),
            "preconstruction": _preconstruction_stats(
                result.preconstruction),
            "buffers": _buffer_residents(result.preconstruction),
            "bus_conflicts": backend.bus_conflicts,
            "dcache": dataclasses.asdict(backend.dcache.stats)}


def _point_payload(spec, streams: StreamCache) -> dict:
    image = streams.image(spec.benchmark, spec.workload_seed)
    stream = streams.stream(spec.benchmark, spec.workload_seed)
    if spec.kind == "processor":
        return _processor_payload(run_processor(
            image, spec.processor_config(), spec.instructions,
            stream=stream))
    config = spec.frontend_config()
    if spec.kind == "dynamic":
        result = run_frontend(image, config, spec.instructions,
                              stream=stream, partition=DYNAMIC_PARTITION)
        payload = _frontend_payload(result)
        payload["events"] = [dataclasses.asdict(event)
                             for event in result.partition_events]
        return payload
    traces = streams.traces(spec.benchmark, spec.instructions,
                            config.selection, spec.workload_seed)
    payload = _frontend_payload(
        run_frontend(image, config, spec.instructions, traces=traces))
    sink = RingBufferSink(capacity=None)
    observed = run_frontend(image, config, spec.instructions, traces=traces,
                            obs=ObsBus(sink, IntervalMetrics()))
    payload["observed"] = _frontend_payload(observed)
    payload["events"] = list(sink.events)
    return payload


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _record() -> dict[str, str]:
    streams = StreamCache(DYNAMIC_BUDGET)
    return {key: _digest(_point_payload(spec, streams))
            for key, spec in _identity_points()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(IDENTITY_GOLDEN.read_text())


@pytest.fixture(scope="module")
def streams() -> StreamCache:
    return StreamCache(DYNAMIC_BUDGET)


class TestFrontendIdentityGolden:
    def test_golden_covers_every_point_once(self, golden):
        keys = [key for key, _ in _identity_points()]
        assert len(keys) == len(set(keys))
        assert sorted(golden["points"]) == sorted(keys)
        assert golden["sha256"] == _digest(golden["points"])

    @pytest.mark.parametrize("program", FIGURE5_BENCHMARKS
                             + MECHANISM_BENCHMARKS[:1]
                             + PROCESSOR_BENCHMARKS[1:])
    def test_points_match_golden(self, golden, streams, program):
        drifted = [key for key, spec in _identity_points()
                   if spec.benchmark == program
                   and _digest(_point_payload(spec, streams))
                   != golden["points"][key]]
        assert not drifted, (
            f"stats, residents or events drifted from "
            f"tests/golden/frontend_identity.json: {drifted}")


class TestSharedProcessorPlan:
    """The processor points of one partition share its plan, and with it
    every trace's backend templates (DESIGN §18): a point's results must
    not depend on which points built them."""

    ORDERS = ("forward", "reversed", "preprocessing first")

    @pytest.mark.parametrize("order", ORDERS)
    def test_points_on_one_plan_match_golden(self, golden, order):
        points = [(key, spec) for key, spec in _identity_points()
                  if spec.kind == "processor"]
        if order == "reversed":
            points.reverse()
        elif order == "preprocessing first":
            points.sort(key=lambda point: not point[1].preprocess)
        # A cache of its own: fresh traces and plans, so every template
        # is built by the first point of this order to need it.
        streams = StreamCache(BUDGET)
        drifted = []
        for key, spec in points:
            config = spec.processor_config()
            plan = streams.plan(spec.benchmark, spec.instructions,
                                config.frontend, spec.workload_seed)
            payload = _processor_payload(run_processor(
                streams.image(spec.benchmark, spec.workload_seed), config,
                spec.instructions,
                stream=streams.stream(spec.benchmark, spec.workload_seed),
                plan=plan))
            if _digest(payload) != golden["points"][key]:
                drifted.append(key)
        assert len(points) == 8 and not drifted, (
            f"points sharing a plan drifted from the golden: {drifted}")
        for benchmark in PROCESSOR_BENCHMARKS:
            plan = streams.plan(benchmark, BUDGET,
                                points[0][1].processor_config().frontend)
            assert plan.templates and all(
                "template" in trace._memo for trace in plan.traces)


def _run_frontend_points(specs, streams: StreamCache) -> None:
    for spec in specs:
        config = spec.frontend_config()
        run_frontend(streams.image(spec.benchmark, spec.workload_seed),
                     config, spec.instructions,
                     traces=streams.traces(spec.benchmark, spec.instructions,
                                           config.selection,
                                           spec.workload_seed))


def _trace_fields(trace) -> tuple:
    return (trace.trace_id, trace.instructions, trace.pcs, trace.next_pc,
            trace.ends_in_call, trace.ends_in_return, trace.partial)


def _stored_traces(image) -> list:
    """(trace, its fields) for every trace the image's walk scripts hold."""
    found = {}
    for scripts in image.walk_scripts.values():
        nodes = list(scripts.roots.values())
        while nodes:
            node = nodes.pop()
            for event in node.events:
                if event is not None and event[1] is not None:
                    found[id(event[1])] = (event[1], _trace_fields(event[1]))
            nodes.extend(child for child in node.children or ()
                         if child is not None)
    return list(found.values())


class TestWalkScriptStore:
    """Every point replays walks recorded on its image by other points;
    its results must not depend on which points ran before it."""

    def test_point_independent_of_store_contents(self, golden, streams):
        grid = [spec.replace(workload_seed=1)
                for spec in figure5_specs("gcc", BUDGET)]
        precon = [spec for spec in grid if spec.pb_entries]
        point = precon[len(precon) // 2]
        image = streams.image("gcc", 1)
        payloads = []
        for before in ([], grid, grid[::-1]):
            image.walk_scripts.clear()
            _run_frontend_points(before, streams)
            payloads.append(_point_payload(point, streams))
        assert payloads[1] == payloads[0] and payloads[2] == payloads[0]
        key = f"figure5 {point.label} seed=1"
        assert _digest(payloads[0]) == golden["points"][key]

    def test_processor_point_after_frontend_points(self, golden, streams):
        spec = figure6_specs(BUDGET, benchmarks=("go",))[1]
        assert spec.pb_entries
        image = streams.image(spec.benchmark, spec.workload_seed)
        image.walk_scripts.clear()
        _run_frontend_points(
            [frontend.replace(workload_seed=spec.workload_seed)
             for frontend in figure5_specs(spec.benchmark, BUDGET)],
            streams)
        assert image.walk_scripts
        assert (_digest(_point_payload(spec, streams))
                == golden["points"][f"processor {spec.label}"])

    def test_stored_traces_never_change(self, streams):
        grid = [spec.replace(workload_seed=2)
                for spec in figure5_specs("vortex", BUDGET)]
        image = streams.image("vortex", 2)
        _run_frontend_points(grid[:10], streams)
        stored = _stored_traces(image)
        assert stored
        # The trace caches and buffers of later points hold these same
        # objects.
        _run_frontend_points(grid[10:] + grid[:10], streams)
        _point_payload(figure6_specs(BUDGET, benchmarks=("vortex",))[1]
                       .replace(workload_seed=2), streams)
        assert all(_trace_fields(trace) == fields
                   for trace, fields in stored)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_frontend_identity.py --record")
    points = _record()
    IDENTITY_GOLDEN.write_text(json.dumps(
        {"points": points, "sha256": _digest(points)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {IDENTITY_GOLDEN} ({len(points)} points)")
