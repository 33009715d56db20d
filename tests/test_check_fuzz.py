"""Tests for the workload fuzzer, the failure minimizer, and the
pinned golden corpus of regression programs."""

import json
from pathlib import Path

import pytest

from repro.check import (
    check_profile,
    fuzz_case_spec,
    knob_diff,
    minimize_case,
    run_fuzz,
)
from repro.check.minimize import MIN_INSTRUCTIONS
from repro.runner import ResultCache
from repro.sim.frontend_runner import FrontendSimulation
from repro.workloads import WorkloadProfile, fuzz_profile, profile_for

GOLDEN = Path(__file__).resolve().parent / "golden" / "fuzz_corpus.json"
BUDGET = 3_000


@pytest.fixture
def broken_slow_path(monkeypatch):
    """Deliberately corrupt a timing counter (the documented mutation
    check from DESIGN.md §12): every slow-path fetch under-counts
    ``slow_path_traces`` by one, breaking the conservation laws."""
    original = FrontendSimulation._slow_path

    def corrupted(self, *args):
        cycles = original(self, *args)
        self.stats.slow_path_traces -= 1
        return cycles

    monkeypatch.setattr(FrontendSimulation, "_slow_path", corrupted)


class TestFuzzCaseSpec:
    def test_spec_is_a_pure_function_of_the_seed(self):
        assert fuzz_case_spec(9, BUDGET) == fuzz_case_spec(9, BUDGET)

    def test_spec_names_route_to_the_sampler(self):
        spec = fuzz_case_spec(9, BUDGET)
        assert spec.kind == "check"
        assert spec.benchmark == "fuzz-9"
        assert profile_for(spec.benchmark) == fuzz_profile(9)

    def test_seeds_vary_the_frontend_sizing(self):
        sizes = {(fuzz_case_spec(seed).tc_entries,
                  fuzz_case_spec(seed).pb_entries)
                 for seed in range(30)}
        assert len(sizes) > 1

    def test_seeds_draw_every_mechanism(self):
        from repro.frontends import mechanism_names

        drawn = {fuzz_case_spec(seed).mechanism for seed in range(30)}
        assert drawn == set(mechanism_names())


class TestMechanismZooUnderOracles:
    """Every registered mechanism must satisfy the cross-model
    invariants — the zoo inherits the validation methodology."""

    @pytest.mark.parametrize("mechanism", ["mana", "nextline", "pmap",
                                           "preconstruction"])
    def test_mechanism_passes_core_oracles(self, mechanism):
        report = check_profile(
            fuzz_profile(3), BUDGET, tc_entries=64, pb_entries=64,
            mechanism=mechanism,
            oracles=["determinism", "conservation", "coverage"])
        assert report.ok, [str(v) for v in report.violations]
        assert report.mechanism == mechanism


class TestRunFuzz:
    def test_clean_sweep_reports_ok(self):
        report = run_fuzz(3, BUDGET)
        assert report.ok
        assert report.cases == 3
        assert report.total_violations == 0
        assert "all oracles held" in report.format()

    def test_warm_rerun_is_served_from_cache(self, tmp_path):
        cold = run_fuzz(3, BUDGET, cache=ResultCache(tmp_path))
        assert cold.cache_hits == 0
        warm = run_fuzz(3, BUDGET, cache=ResultCache(tmp_path))
        assert warm.ok == cold.ok
        assert warm.cache_hits == 3
        assert warm.wall_seconds < cold.wall_seconds

    def test_report_serialises(self):
        payload = run_fuzz(2, BUDGET, oracles=["conservation"]).to_dict()
        assert payload["oracles"] == ["conservation"]
        json.dumps(payload)  # JSON-serialisable throughout

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="seeds"):
            run_fuzz(0, BUDGET)


class TestMutationCheck:
    """Breaking a counter must produce a failing, minimizable case."""

    def test_oracles_catch_the_broken_counter(self, broken_slow_path):
        report = check_profile(fuzz_profile(7), BUDGET)
        assert not report.ok
        assert report.by_oracle()["conservation"] > 0

    def test_fuzz_surfaces_and_minimizes_the_failure(self, broken_slow_path,
                                                     tmp_path):
        report = run_fuzz(2, BUDGET, failures_dir=tmp_path / "failures")
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.violations > 0
            # Every point runs the corrupted slow-path step, so every
            # case trips the conservation laws.
            assert any("[conservation]" in m for m in failure.messages)
            minimized = failure.minimized
            assert minimized is not None
            # Acceptance criterion: the reproducer is within 3 profile
            # knobs of the default profile.
            assert len(minimized.knobs) <= 3
            assert not minimized.report.ok
            assert Path(failure.script_path).is_file()
        formatted = report.format()
        assert "failing case(s)" in formatted
        assert "minimized:" in formatted

    def test_minimizer_shrinks_budget_and_knobs(self, broken_slow_path):
        minimized = minimize_case(fuzz_profile(7), BUDGET)
        assert minimized is not None
        assert minimized.instructions < BUDGET
        assert minimized.instructions >= MIN_INSTRUCTIONS
        # The corruption breaks conservation directly; a point alone and
        # inside a batch run the same corrupted step, so the simulator
        # oracle still agrees with itself.
        assert minimized.failing_oracles == ("conservation",)
        assert len(minimized.knobs) <= minimized.original_knobs
        assert minimized.probes > 1

    def test_repro_script_is_self_contained(self, broken_slow_path):
        minimized = minimize_case(fuzz_profile(7), BUDGET)
        script = minimized.script()
        assert "from repro.check import check_profile" in script
        assert f"seed={minimized.profile.seed!r}" in script
        assert "'conservation'" in script
        compile(script, "<repro-script>", "exec")  # syntactically valid


class TestMinimizerOnPassingCase:
    def test_returns_none_when_nothing_fails(self):
        assert minimize_case(fuzz_profile(3), BUDGET) is None

    def test_knob_diff_ignores_identity_fields(self):
        profile = WorkloadProfile(name="x", seed=33)
        assert knob_diff(profile) == {}
        assert knob_diff(fuzz_profile(0))  # fuzz profiles do differ


class TestGoldenCorpus:
    """Pinned regression programs promoted from fuzz exploration.

    Each corpus case is a self-contained knob overlay — independent of
    the fuzz sampler — that must keep passing every oracle."""

    def _cases(self):
        return json.loads(GOLDEN.read_text())["cases"]

    def test_corpus_is_non_trivial(self):
        cases = self._cases()
        assert len(cases) >= 5
        names = [case["name"] for case in cases]
        assert len(names) == len(set(names))

    def test_corpus_exercises_both_kernels(self):
        drawn = {case.get("simulator", "scalar") for case in self._cases()}
        assert drawn == {"scalar", "vectorized"}

    @pytest.mark.parametrize("case", json.loads(
        GOLDEN.read_text())["cases"], ids=lambda case: case["name"])
    def test_pinned_case_passes_every_oracle(self, case):
        profile = WorkloadProfile(name=case["name"], seed=case["seed"],
                                  **case["knobs"])
        report = check_profile(
            profile, case["instructions"],
            tc_entries=case["tc_entries"],
            pb_entries=case["pb_entries"],
            static_seed=case["static_seed"],
            mechanism=case.get("mechanism", "preconstruction"),
            simulator=case.get("simulator", "scalar"))
        assert report.ok, [str(v) for v in report.violations]


class TestFuzzCLIAutoMinimize:
    def test_failure_emits_repro_script_in_default_dir(
            self, broken_slow_path, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        # No --failures-dir: scripts land in ./fuzz-failures relative
        # to the working directory, and the report names each one.
        monkeypatch.chdir(tmp_path)
        assert main(["--no-cache", "fuzz", "--seeds", "1",
                     "--budget", "3000"]) == 1
        out = capsys.readouterr().out
        assert "repro script:" in out
        scripts = list((tmp_path / "fuzz-failures").glob("repro_fuzz_*.py"))
        assert scripts
        for script in scripts:
            assert str(script) in out or script.name in out
            compile(script.read_text(), str(script), "exec")
