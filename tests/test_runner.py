"""Tests for the parallel experiment runner: spec, cache, pool."""

import dataclasses
import json

import pytest

from repro.runner import (
    DEFAULT_INSTRUCTIONS,
    SPEC_SCHEMA_VERSION,
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    RunResult,
    StreamCache,
    execute_spec,
    resolve_instructions,
    run_point,
    sweep,
)

BUDGET = 4_000


def spec_for(benchmark="compress", **overrides):
    overrides.setdefault("instructions", BUDGET)
    overrides.setdefault("tc_entries", 64)
    overrides.setdefault("pb_entries", 32)
    return ExperimentSpec(benchmark=benchmark, **overrides)


# ----------------------------------------------------------------------
# ExperimentSpec
# ----------------------------------------------------------------------
class TestExperimentSpec:
    def test_frozen_and_hashable(self):
        spec = spec_for()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.tc_entries = 128
        assert spec == spec_for()
        assert len({spec, spec_for()}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(benchmark="", instructions=1)
        with pytest.raises(ValueError):
            ExperimentSpec(benchmark="gcc", tc_entries=0, instructions=1)
        with pytest.raises(ValueError):
            ExperimentSpec(benchmark="gcc", pb_entries=-1, instructions=1)
        with pytest.raises(ValueError):
            ExperimentSpec(benchmark="gcc", kind="nope", instructions=1)
        with pytest.raises(ValueError):
            ExperimentSpec(benchmark="gcc", preprocess=True, instructions=1)
        with pytest.raises(ValueError):
            ExperimentSpec(benchmark="gcc", instructions=-5)

    def test_digest_is_stable(self):
        assert spec_for().digest() == spec_for().digest()

    @pytest.mark.parametrize("change", [
        {"benchmark": "gcc"}, {"tc_entries": 128}, {"pb_entries": 0},
        {"static_seed": True}, {"instructions": 5_000},
        {"workload_seed": 7}, {"kind": "dynamic"},
        {"kind": "processor", "preprocess": True},
    ])
    def test_digest_changes_with_any_field(self, change):
        assert spec_for().digest() != spec_for().replace(**change).digest()

    def test_digest_changes_with_schema_version(self):
        spec = spec_for()
        assert spec.digest(schema_version=1) != spec.digest(schema_version=2)

    def test_round_trip(self):
        spec = spec_for(kind="processor", preprocess=True)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_names_unknown_fields(self):
        payload = dict(spec_for().to_dict(), simulator="vectorized",
                       turbo=True)
        with pytest.raises(ValueError,
                           match="unknown ExperimentSpec field.*"
                                 "simulator, turbo"):
            ExperimentSpec.from_dict(payload)

    def test_configs_match_spec(self):
        spec = spec_for(static_seed=True)
        config = spec.frontend_config()
        assert config.trace_cache.entries == 64
        assert config.preconstruction.buffer_entries == 32
        assert config.static_seed
        proc = spec_for(kind="processor", preprocess=True).processor_config()
        assert proc.preprocess is not None
        assert spec_for().processor_config().preprocess is None

    def test_budget_resolution_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "1234")
        # Explicit value wins over the environment ...
        assert resolve_instructions(777) == 777
        assert ExperimentSpec(benchmark="gcc",
                              instructions=777).instructions == 777
        # ... the environment wins over the built-in default ...
        assert resolve_instructions() == 1234
        assert ExperimentSpec(benchmark="gcc").instructions == 1234
        # ... and the default is the fallback.
        monkeypatch.delenv("REPRO_INSTRUCTIONS")
        assert resolve_instructions() == DEFAULT_INSTRUCTIONS
        assert (ExperimentSpec(benchmark="gcc").instructions
                == DEFAULT_INSTRUCTIONS)


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        assert cache.get(spec) is None
        result = execute_spec(spec)
        cache.put(spec, result)
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.cached
        assert loaded.spec == spec
        assert loaded.metrics == result.metrics

    def test_any_field_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        assert cache.get(spec.replace(tc_entries=128)) is None

    def test_schema_version_change_misses(self, tmp_path):
        spec = spec_for()
        ResultCache(tmp_path).put(spec, execute_spec(spec))
        bumped = SPEC_SCHEMA_VERSION + 1
        assert ResultCache(tmp_path, schema_version=bumped).get(spec) is None

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        fresh = run_point(spec, cache=cache)
        assert not fresh.cached
        cache.path_for(spec).write_text("{ not json")
        recomputed = run_point(spec, cache=cache)
        assert not recomputed.cached
        assert recomputed.metrics == fresh.metrics
        # The recompute repaired the entry.
        assert run_point(spec, cache=cache).cached

    def test_tampered_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        payload = json.loads(cache.path_for(spec).read_text())
        payload["spec"]["tc_entries"] = 999
        cache.path_for(spec).write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_entry_with_unknown_spec_field_is_quarantined(self, tmp_path):
        # A pre-v6 entry's spec carries the removed "simulator" field.
        cache = ResultCache(tmp_path)
        spec = spec_for()
        fresh = run_point(spec, cache=cache)
        path = cache.path_for(spec)
        payload = json.loads(path.read_text())
        payload["spec"]["simulator"] = "vectorized"
        path.write_text(json.dumps(payload))
        recomputed = run_point(spec, cache=cache)
        assert not recomputed.cached
        assert recomputed.metrics == fresh.metrics
        assert [p.name for p in cache.quarantined()] \
            == [path.name + ".corrupt"]
        assert run_point(spec, cache=cache).cached

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert ResultCache().root == tmp_path / "custom"

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec_for(), execute_spec(spec_for()))
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_corrupted_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        path = cache.path_for(spec)
        path.write_text("{ not json")
        assert cache.get(spec) is None
        # The bad bytes moved aside: no longer listed, no longer parsed.
        assert not path.exists()
        assert cache.entries() == []
        quarantined = cache.quarantined()
        assert [p.name for p in quarantined] == [path.name + ".corrupt"]
        assert quarantined[0].read_text() == "{ not json"

    def test_quarantined_entry_not_reparsed_on_warm_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        cache.path_for(spec).write_text("{ not json")
        assert cache.get(spec) is None      # quarantines
        before = cache.misses
        assert cache.get(spec) is None      # plain miss: file is gone
        assert cache.misses == before + 1
        assert len(cache.quarantined()) == 1
        # Recompute repairs the entry alongside the quarantined bytes.
        assert not run_point(spec, cache=cache).cached
        assert run_point(spec, cache=cache).cached
        assert len(cache.quarantined()) == 1

    def test_clear_removes_quarantined_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        cache.path_for(spec).write_text("broken")
        assert cache.get(spec) is None
        cache.put(spec, execute_spec(spec))
        assert cache.clear() == 2  # live entry + quarantined bytes
        assert cache.entries() == []
        assert cache.quarantined() == []


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
GRID = [
    spec_for("compress", tc_entries=tc, pb_entries=pb)
    for tc in (64, 128) for pb in (0, 32)
] + [
    spec_for("ijpeg", tc_entries=tc, pb_entries=pb)
    for tc in (64, 128) for pb in (0, 32)
]


class TestScheduler:
    def test_parallel_equals_serial(self):
        serial = sweep(GRID, jobs=1)
        parallel = sweep(GRID, jobs=4)
        assert [r.spec for r in serial] == [r.spec for r in parallel] \
            == GRID
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]

    def test_duplicates_computed_once(self):
        runner = ExperimentRunner()
        results = runner.run([GRID[0], GRID[0], GRID[1]])
        assert results[0] is results[1]
        assert runner.report.requested == 3
        assert runner.report.unique == 2
        assert runner.report.executed == 2

    def test_warm_cache_executes_nothing(self, tmp_path):
        cold = ExperimentRunner(cache=ResultCache(tmp_path))
        cold_results = cold.run(GRID)
        assert cold.report.executed == len(GRID)
        assert cold.report.cache_hits == 0

        warm = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path))
        warm_results = warm.run(GRID)
        assert warm.report.executed == 0
        assert warm.report.cache_hits == len(GRID)
        assert ([r.metrics for r in warm_results]
                == [r.metrics for r in cold_results])

    def test_cached_metrics_round_trip_bit_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for("compress")
        fresh = run_point(spec, cache=cache)
        warm = run_point(spec, cache=cache)
        assert warm.cached
        for key, value in fresh.metrics.items():
            assert warm.metrics[key] == value
            assert type(warm.metrics[key]) is type(value)

    def test_stream_cache_reuse(self):
        stream_cache = StreamCache(instructions=BUDGET)
        stream = stream_cache.stream("compress")
        result = execute_spec(spec_for("compress"), stream_cache)
        assert stream_cache.stream("compress") is stream
        assert result.metrics["instructions"] == BUDGET

    def test_dynamic_kind(self):
        spec = ExperimentSpec(benchmark="compress", tc_entries=384,
                              pb_entries=128, kind="dynamic",
                              instructions=6_000)
        result = execute_spec(spec)
        assert "pb_trajectory" in result.metrics
        assert result.metrics["trace_misses_per_ki"] >= 0

    def test_progress_lines_emitted(self):
        messages = []
        sweep(GRID[:2], progress=messages.append)
        assert messages
        assert "compress" in messages[-1]

    def test_report_serialises(self):
        runner = ExperimentRunner()
        runner.run(GRID[:1])
        payload = json.loads(runner.report.to_json())
        assert payload["executed"] == 1
        assert payload["points"][0]["kind"] == "frontend"
        assert "compress" in runner.report.summary() or payload["requested"]

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)


class TestRunResult:
    def test_round_trip(self):
        result = RunResult(spec=spec_for(), metrics={"a": 1, "b": 2.5},
                           wall_seconds=0.25)
        loaded = RunResult.from_dict(result.to_dict(), cached=True)
        assert loaded.spec == result.spec
        assert loaded.metrics == result.metrics
        assert loaded.cached


# ----------------------------------------------------------------------
# Cache hygiene regressions: stale temps, racing stat(), digest cost
# ----------------------------------------------------------------------
class TestCacheHygiene:
    def test_stale_temps_listed_and_swept_by_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        # Strand the two temp shapes a killed run can leave behind:
        # an entry write and a last_run.json write.
        entry_temp = cache.path_for(spec).with_suffix(".tmp.99999")
        entry_temp.write_text("{ half an entry")
        tally_temp = tmp_path / "last_run.tmp.99999"
        tally_temp.write_text("{ half a tally")
        assert set(cache.stale_temps()) == {entry_temp, tally_temp}
        # Temps are invisible to entries(): never parsed as results.
        assert cache.entries() == [cache.path_for(spec)]
        assert cache.clear() == 3
        assert cache.stale_temps() == []
        assert cache.entries() == []

    def test_stale_temps_empty_without_a_cache_dir(self, tmp_path):
        assert ResultCache(tmp_path / "never-made").stale_temps() == []

    def test_entry_info_survives_entry_vanishing_mid_listing(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        # A dangling symlink reproduces the race deterministically: the
        # glob sees the name, the stat() finds nothing.
        ghost = cache.path_for(spec).parent / ("f" * 64 + ".json")
        ghost.symlink_to(tmp_path / "deleted-by-another-process.json")
        rows = cache.entry_info()
        assert len(rows) == 2
        ghost_row = next(r for r in rows if r["digest"] == "f" * 64)
        assert ghost_row["error"].startswith("unreadable")
        assert ghost_row["size_bytes"] == 0
        live_row = next(r for r in rows if "error" not in r)
        assert live_row["label"] == spec.label

    def test_get_computes_the_digest_once(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, execute_spec(spec))
        calls = []
        original = ExperimentSpec.digest

        def counting(self, schema_version=SPEC_SCHEMA_VERSION):
            calls.append(schema_version)
            return original(self, schema_version)

        monkeypatch.setattr(ExperimentSpec, "digest", counting)
        assert cache.get(spec) is not None          # hit
        assert len(calls) == 1
        calls.clear()
        assert cache.get(spec.replace(tc_entries=128)) is None   # miss
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Concurrent writers sharing one cache directory
# ----------------------------------------------------------------------
def _hammer_cache(root, spec_payload, result_payload, rounds):
    """Worker for the concurrent-writer test (module level: picklable).

    Repeatedly stores and reloads the same digest, periodically tearing
    the entry mid-loop the way a crashed writer would, and returns how
    many reloads were served (hit or recovered-miss — never a crash).
    """
    from repro.runner import ExperimentSpec, ResultCache, RunResult

    spec = ExperimentSpec.from_dict(spec_payload)
    result = RunResult.from_dict(result_payload)
    cache = ResultCache(root)
    served = 0
    for round_no in range(rounds):
        cache.put(spec, result)
        if round_no % 5 == 3:
            try:
                cache.path_for(spec).write_text("{ torn write")
            except OSError:
                pass
        if cache.get(spec) is not None:
            served += 1
    return served


class TestConcurrentWriters:
    def test_two_processes_hammering_one_digest_recover(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        spec = spec_for()
        result = execute_spec(spec)
        root = tmp_path / "shared"
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_hammer_cache, str(root), spec.to_dict(),
                                   result.to_dict(), 25) for _ in range(2)]
            served = [future.result(timeout=120) for future in futures]
        # Neither process crashed, and each was served real results.
        assert all(count > 0 for count in served)
        # The survivor state is sane: a fresh put/get round-trips, the
        # only residue is quarantined bytes, and no temp is stranded.
        cache = ResultCache(root)
        cache.put(spec, result)
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.metrics == result.metrics
        assert cache.stale_temps() == []
        for leftover in cache.quarantined():
            assert leftover.name.endswith(".json.corrupt")
