"""Differential test battery for batched frontend runs.

Every frontend point runs on one dispatch loop over a shared
trace-partition plan; a point may run alone or inside a batch, and the
``simulator`` spec field no longer changes execution (the spec digest
excludes it, so both values share one cache entry).  This battery pins
that a point's results never depend on how it was run, at every
observable surface:

* **stats counters** — every :class:`FrontendStats` field, per
  mechanism, per sizing, batched-many-at-once and one-at-a-time;
* **cache end states** — resident trace-cache contents and occupancy;
* **event streams & interval metrics** — observed runs byte-identical,
  including against the pinned golden metrics file;
* **CLI stdout** — exhibit tables identical under ``--simulator``,
  serial and parallel;
* **manifests & caching** — kernel-blind provenance, cross-kernel
  cache hits in both directions;

plus the plan's per-occurrence features against the partition, and a
check that the default pipeline never imports numpy.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import build_manifest, run_observed
from repro.runner import (
    SIMULATOR_KINDS,
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    run_point,
)
from repro.runner.pool import StreamCache
from repro.sim import run_frontend
from repro.vector import build_plan, plan_key, run_frontend_batch

GOLDEN_DIR = Path(__file__).parent / "golden"
BUDGET = 6_000

#: The golden-metrics exhibit point (mirrors tests/test_obs.py).
SPEC = ExperimentSpec(benchmark="compress", tc_entries=256, pb_entries=256,
                      instructions=BUDGET)


def _legs(spec):
    """A lone run of ``spec`` (building its own plan) and a batch of
    one on the stream cache's shared plan."""
    stream_cache = StreamCache(spec.instructions)
    image = stream_cache.image(spec.benchmark, spec.workload_seed)
    config = spec.frontend_config()
    traces = stream_cache.traces(spec.benchmark, spec.instructions,
                                 config.selection, spec.workload_seed)
    scalar = run_frontend(image, config, spec.instructions, traces=traces)
    plan = stream_cache.plan(spec.benchmark, spec.instructions, config,
                             spec.workload_seed)
    vector = run_frontend_batch(image, [config], plan)[0]
    return scalar, vector


def _assert_equivalent(scalar, vector):
    """Every observable of the two legs must match exactly."""
    assert dataclasses.asdict(scalar.stats) == dataclasses.asdict(
        vector.stats)
    assert ([t.trace_id for t in scalar.trace_cache.resident_traces()]
            == [t.trace_id for t in vector.trace_cache.resident_traces()])
    assert scalar.trace_cache.occupancy() == vector.trace_cache.occupancy()


# ----------------------------------------------------------------------
# Spec surface: the simulator field's contract
# ----------------------------------------------------------------------
class TestSimulatorSpecSurface:
    def test_simulator_kinds(self):
        assert SIMULATOR_KINDS == ("scalar", "vectorized")

    def test_default_is_scalar(self):
        assert ExperimentSpec(benchmark="compress").simulator == "scalar"

    def test_unknown_simulator_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            ExperimentSpec(benchmark="compress", simulator="turbo")

    @pytest.mark.parametrize("kind", ["processor", "dynamic"])
    def test_vectorized_rejected_for_unbatched_kinds(self, kind):
        with pytest.raises(ValueError, match="scalar simulator"):
            ExperimentSpec(benchmark="compress", kind=kind,
                           simulator="vectorized")

    @pytest.mark.parametrize("kind", ["frontend", "check"])
    def test_vectorized_accepted_for_batched_kinds(self, kind):
        spec = ExperimentSpec(benchmark="compress", kind=kind,
                              simulator="vectorized")
        assert spec.simulator == "vectorized"

    def test_digest_excludes_simulator(self):
        # The load-bearing interchangeability contract: both kernels
        # share one content address (and therefore one cache entry).
        assert SPEC.digest() == SPEC.replace(
            simulator="vectorized").digest()

    def test_digest_still_varies_with_real_identity(self):
        assert SPEC.digest() != SPEC.replace(tc_entries=128).digest()

    def test_label_marks_non_default_kernel_only(self):
        assert "vectorized" not in SPEC.label
        assert "vectorized" in SPEC.replace(simulator="vectorized").label

    def test_spec_roundtrips_through_dict(self):
        spec = SPEC.replace(simulator="vectorized")
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

    def test_obs_requires_a_batch_of_one(self):
        from repro.obs import IntervalMetrics, ObsBus, RingBufferSink

        image, traces, config = self._materials()
        plan = build_plan(traces, config)
        bus = ObsBus(RingBufferSink(), IntervalMetrics())
        with pytest.raises(ValueError, match="batch of exactly one"):
            run_frontend_batch(image, [config, config], plan, obs=bus)


# ----------------------------------------------------------------------
# Kernel equivalence: stats and cache end states, every mechanism
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
        # The actual batching win: many points, one plan, one pass —
        # each point still bit-identical to its lone run.
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
        for config, vector in zip(configs, batched):
            scalar = run_frontend(image, config, BUDGET, traces=traces)
            _assert_equivalent(scalar, vector)


# ----------------------------------------------------------------------
# Runner-level differential: run_point / ExperimentRunner / caching
# ----------------------------------------------------------------------
class TestRunnerDifferential:
    def test_run_point_metrics_identical(self):
        scalar = run_point(SPEC)
        vector = run_point(SPEC.replace(simulator="vectorized"))
        assert scalar.metrics == vector.metrics

    def test_check_verdicts_identical(self):
        spec = ExperimentSpec(benchmark="fuzz-3", kind="check",
                              tc_entries=64, pb_entries=64,
                              instructions=3_000)
        scalar = run_point(spec)
        vector = run_point(spec.replace(simulator="vectorized"))
        assert scalar.metrics == vector.metrics
        assert scalar.metrics["violations"] == 0

    def test_parallel_vectorized_sweep_matches_serial_scalar(self):
        specs = [ExperimentSpec(benchmark="compress", tc_entries=tc,
                                instructions=3_000)
                 for tc in (32, 64, 128, 256)]
        scalar = ExperimentRunner(jobs=1).run(specs)
        vector = ExperimentRunner(jobs=2).run(
            [spec.replace(simulator="vectorized") for spec in specs])
        for a, b in zip(scalar, vector):
            assert a.metrics == b.metrics

    @pytest.mark.parametrize("first,second", [("scalar", "vectorized"),
                                              ("vectorized", "scalar")])
    def test_cross_kernel_cache_hits_both_ways(self, tmp_path, first,
                                               second):
        # One digest, one entry: a point computed under either kernel
        # serves the other from cache, re-labelled to the requesting
        # spec so the caller sees its own simulator choice.
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              instructions=3_000)
        cold = run_point(spec.replace(simulator=first), cache=cache)
        warm = run_point(spec.replace(simulator=second), cache=cache)
        assert not cold.cached
        assert warm.cached
        assert warm.spec.simulator == second
        assert warm.metrics == cold.metrics


# ----------------------------------------------------------------------
# Observed runs: event streams, interval metrics, golden file
# ----------------------------------------------------------------------
class TestObservedDifferential:
    def test_event_streams_are_identical(self):
        scalar = run_observed(SPEC)
        vector = run_observed(SPEC.replace(simulator="vectorized"))
        assert scalar.events == vector.events
        assert scalar.stats.summary() == vector.stats.summary()

    def test_vectorized_metrics_match_golden_file(self, tmp_path):
        # The same pinned golden the default spec is held to
        # (tests/test_obs.py) — byte-for-byte.
        golden = GOLDEN_DIR / "metrics_compress_tc256_pb256_i6000.jsonl"
        observed = run_observed(SPEC.replace(simulator="vectorized"))
        produced = observed.write_metrics(tmp_path / "metrics.jsonl")
        assert produced.read_bytes() == golden.read_bytes()

    def test_manifests_are_kernel_blind(self):
        scalar = build_manifest(SPEC, include_host=False)
        vector = build_manifest(SPEC.replace(simulator="vectorized"),
                                include_host=False)
        assert scalar == vector


# ----------------------------------------------------------------------
# CLI: exhibit stdout under --simulator
# ----------------------------------------------------------------------
class TestCLIDifferential:
    def _stdout(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_figure5_stdout_identical(self, capsys):
        base = ["--no-cache", "--instructions", "3000",
                "figure5", "--benchmarks", "compress"]
        scalar = self._stdout(capsys, base)
        vector = self._stdout(capsys, base + ["--simulator", "vectorized"])
        assert scalar == vector
        assert "compress" in scalar

    def test_all_stdout_identical_including_parallel(self, capsys):
        # "all" mixes frontend, processor and dynamic points —
        # --simulator must apply to the batchable kinds and leave the
        # rest scalar, with stdout unchanged either way.
        base = ["--no-cache", "--instructions", "2000",
                "all", "--benchmarks", "compress"]
        scalar = self._stdout(capsys, base)
        vector = self._stdout(capsys, base + ["--simulator", "vectorized"])
        parallel = self._stdout(
            capsys, ["--no-cache", "--instructions", "2000",
                     "all", "--benchmarks", "compress", "--jobs", "2",
                     "--simulator", "vectorized"])
        assert scalar == vector
        assert vector == parallel

    def test_compare_stdout_identical(self, capsys):
        base = ["--no-cache", "--instructions", "3000",
                "compare", "--benchmarks", "compress",
                "--mechanisms", "preconstruction,mana", "--pb", "64"]
        scalar = self._stdout(capsys, base)
        vector = self._stdout(capsys, base + ["--simulator", "vectorized"])
        assert scalar == vector


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
