"""Tests for :mod:`repro.vector`: the shared trace-partition plan.

Every frontend point runs the one dispatch loop over a
:class:`~repro.vector.BatchPlan`, memoised per stream partition by
:meth:`~repro.runner.StreamCache.plan` and shared by every point of
that partition.  These tests pin the plan's keying and features, that
a point on the shared plan equals the same point on a plan of its own
(every :class:`FrontendStats` field, trace-cache residents and
occupancy, per mechanism and per sizing), that
:func:`~repro.vector.run_frontend_batch` equals one-by-one runs, the
read-only ``ExperimentSpec.simulator`` constant, and that the default
pipeline never imports numpy.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import ExperimentSpec
from repro.runner.pool import StreamCache
from repro.sim import run_frontend
from repro.vector import build_plan, plan_key, run_frontend_batch

BUDGET = 6_000

SPEC = ExperimentSpec(benchmark="compress", tc_entries=256, pb_entries=256,
                      instructions=BUDGET)


def _legs(spec):
    """A run of ``spec`` on a plan of its own, then one on the stream
    cache's shared plan (the runner's path)."""
    stream_cache = StreamCache(spec.instructions)
    image = stream_cache.image(spec.benchmark, spec.workload_seed)
    config = spec.frontend_config()
    traces = stream_cache.traces(spec.benchmark, spec.instructions,
                                 config.selection, spec.workload_seed)
    own = run_frontend(image, config, spec.instructions, traces=traces)
    plan = stream_cache.plan(spec.benchmark, spec.instructions, config,
                             spec.workload_seed)
    shared = run_frontend(image, config, plan=plan)
    return own, shared


def _assert_equivalent(own, shared):
    """Every observable of the two legs must match exactly."""
    assert dataclasses.asdict(own.stats) == dataclasses.asdict(shared.stats)
    assert ([t.trace_id for t in own.trace_cache.resident_traces()]
            == [t.trace_id for t in shared.trace_cache.resident_traces()])
    assert own.trace_cache.occupancy() == shared.trace_cache.occupancy()


# ----------------------------------------------------------------------
# Spec surface: the read-only simulator constant
# ----------------------------------------------------------------------
class TestSimulatorSpecSurface:
    def test_default_is_scalar(self):
        # A read-only constant, not one of the spec's nine fields.
        spec = ExperimentSpec(benchmark="compress")
        assert spec.simulator == "scalar"
        assert len(dataclasses.fields(ExperimentSpec)) == 9
        assert "simulator" not in spec.to_dict()
        with pytest.raises(AttributeError):
            spec.simulator = "vectorized"

    def test_unknown_simulator_rejected(self):
        # The field is gone: setting it is an unknown field, in code
        # and in a (pre-v6) document.
        with pytest.raises(TypeError):
            ExperimentSpec(benchmark="compress", simulator="turbo")
        with pytest.raises(ValueError, match="simulator"):
            ExperimentSpec.from_dict(dict(SPEC.to_dict(),
                                          simulator="vectorized"))

    def test_digest_still_varies_with_real_identity(self):
        assert SPEC.digest() != SPEC.replace(tc_entries=128).digest()

    def test_spec_roundtrips_through_dict(self):
        spec = SPEC.replace(static_seed=True)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------------------
# Batch plan: keying, cross-checks, compatibility gating
# ----------------------------------------------------------------------
class TestBatchPlan:
    def _materials(self, spec=SPEC):
        stream_cache = StreamCache(spec.instructions)
        image = stream_cache.image(spec.benchmark, spec.workload_seed)
        config = spec.frontend_config()
        traces = stream_cache.traces(spec.benchmark, spec.instructions,
                                     config.selection, spec.workload_seed)
        return image, traces, config

    def test_plan_key_is_hashable_and_stable(self):
        config = SPEC.frontend_config()
        again = SPEC.frontend_config()
        assert plan_key(config) == plan_key(again)
        assert {plan_key(config): "plan"}[plan_key(again)] == "plan"
        # Sizing knobs are per-point: they must not split the batch.
        assert plan_key(SPEC.replace(tc_entries=32).frontend_config()) \
            == plan_key(config)

    def test_plan_features_follow_the_partition(self):
        _, traces, config = self._materials()
        plan = build_plan(traces, config)
        assert len(plan) == len(traces)
        assert plan.length == [len(trace) for trace in traces]
        assert plan.n_branches == [len(trace.trace_id.outcomes)
                                   for trace in traces]
        assert plan.ntp_none + plan.ntp_correct + plan.ntp_wrong \
            == len(traces)
        assert all(mispredicted <= branches for mispredicted, branches
                   in zip(plan.n_mispredicts, plan.n_branches))

    def test_stream_cache_memoises_one_plan_per_partition(self):
        stream_cache = StreamCache(BUDGET)
        config = SPEC.frontend_config()
        plan = stream_cache.plan("compress", BUDGET, config, None)
        other = SPEC.replace(tc_entries=32, pb_entries=0,
                             mechanism="mana").frontend_config()
        assert stream_cache.plan("compress", BUDGET, other, None) is plan

    def test_incompatible_config_rejected_by_kernel(self):
        image, traces, config = self._materials()
        plan = build_plan(traces, config)
        other = dataclasses.replace(
            SPEC.frontend_config(),
            bimodal_entries=config.bimodal_entries * 2)
        with pytest.raises(ValueError, match="bimodal_entries"):
            run_frontend_batch(image, [other], plan)


# ----------------------------------------------------------------------
# Shared plan vs own plan: stats and cache end states, every mechanism
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("mechanism", ["preconstruction", "mana",
                                           "nextline", "pmap"])
    def test_every_mechanism_is_bit_identical(self, mechanism):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              pb_entries=64, mechanism=mechanism,
                              instructions=BUDGET)
        _assert_equivalent(*_legs(spec))

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(benchmark="compress", tc_entries=32, pb_entries=0,
                       instructions=BUDGET),
        ExperimentSpec(benchmark="gcc", tc_entries=256, pb_entries=128,
                       instructions=BUDGET),
        ExperimentSpec(benchmark="go", tc_entries=128, pb_entries=64,
                       static_seed=True, instructions=BUDGET),
    ], ids=lambda spec: spec.label)
    def test_sizing_sweep_points_are_bit_identical(self, spec):
        _assert_equivalent(*_legs(spec))

    def test_batch_of_many_equals_scalar_one_by_one(self):
        # Many points on one shared plan, each bit-identical to its
        # lone run on a plan of its own.
        stream_cache = StreamCache(BUDGET)
        image = stream_cache.image("compress", None)
        specs = [ExperimentSpec(benchmark="compress", tc_entries=tc,
                                pb_entries=pb, instructions=BUDGET)
                 for tc in (32, 128, 256) for pb in (0, 64)]
        configs = [spec.frontend_config() for spec in specs]
        plan = stream_cache.plan("compress", BUDGET, configs[0], None)
        batched = run_frontend_batch(image, configs, plan)
        traces = stream_cache.traces("compress", BUDGET,
                                     configs[0].selection, None)
        for config, shared in zip(configs, batched):
            own = run_frontend(image, config, BUDGET, traces=traces)
            _assert_equivalent(own, shared)


# ----------------------------------------------------------------------
# Dependencies: the default pipeline is numpy-free
# ----------------------------------------------------------------------
def test_figure5_point_leaves_numpy_unimported():
    source = (
        "import sys\n"
        "import repro.api\n"
        "from repro.api import ExperimentSpec, run_point\n"
        "run_point(ExperimentSpec(benchmark='compress', tc_entries=64,\n"
        "                         pb_entries=64, instructions=2000))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
