"""Tests for the cross-model oracle catalogue and check harness."""

import dataclasses
from array import array

import pytest

from repro.check.harness import (
    CheckReport,
    check_profile,
    execute_check,
    resolve_oracles,
)
from repro.check.oracles import (
    MAX_DETAILED_VIOLATIONS,
    ORACLES,
    CheckBundle,
    Violation,
    _Claims,
    check_cfg,
    check_conservation,
    check_coverage,
    check_determinism,
    check_intervals,
    oracle_names,
)
from repro.engine import Stream
from repro.runner import ExperimentSpec
from repro.workloads import generate, profile_for

BUDGET = 3_000


@pytest.fixture(scope="module")
def compress_report():
    return check_profile(profile_for("compress"), BUDGET)


def _bundle(name="compress", budget=BUDGET, **kwargs) -> CheckBundle:
    return CheckBundle(profile_for(name), budget, **kwargs)


def _moved_pc(stream: Stream, index: int, delta: int) -> Stream:
    """A copy of ``stream`` whose pc slot ``index`` moved by ``delta``:
    record ``index - 1``'s next_pc and record ``index``'s pc."""
    pcs = array("I", stream.pcs)
    pcs[index] += delta
    return Stream(pcs, stream.taken, stream.mem_addrs, stream.insts)


class TestViolation:
    def test_str_without_detail(self):
        assert str(Violation("cfg", "bad edge")) == "[cfg] bad edge"

    def test_str_renders_sorted_detail(self):
        violation = Violation("cfg", "bad edge", {"pc": 8, "index": 1})
        assert str(violation) == "[cfg] bad edge (index=1, pc=8)"

    def test_claims_cap_described_violations(self):
        claims = _Claims("demo")
        for i in range(MAX_DETAILED_VIOLATIONS + 3):
            claims.violate("boom", index=i)
        out = claims.done()
        assert len(out) == MAX_DETAILED_VIOLATIONS + 1
        assert "3 further violations" in out[-1].message


class TestResolveOracles:
    def test_default_is_every_oracle(self):
        assert resolve_oracles(None) == oracle_names()

    def test_subset_keeps_registry_order(self):
        assert resolve_oracles(["cfg", "determinism", "cfg"]) == \
            ("determinism", "cfg")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            resolve_oracles(["not-an-oracle"])


class TestCheckProfile:
    def test_clean_profile_passes_every_oracle(self, compress_report):
        assert compress_report.ok
        assert compress_report.oracles == oracle_names()
        assert all(count == 0 for count
                   in compress_report.by_oracle().values())

    def test_summary_carries_headline_stats(self, compress_report):
        assert compress_report.summary["instructions"] == BUDGET
        assert compress_report.summary["traces"] > 0

    def test_metrics_are_flat_and_complete(self, compress_report):
        metrics = compress_report.to_metrics()
        assert metrics["violations"] == 0
        for name in oracle_names():
            assert metrics[f"oracle_{name}_violations"] == 0
        assert metrics["oracle_generate_violations"] == 0
        assert metrics["violation_messages"] == []
        assert metrics["instructions"] == BUDGET

    def test_oracle_subset_runs_only_that_leg(self):
        report = check_profile(profile_for("compress"), BUDGET,
                               oracles=["conservation"])
        assert report.oracles == ("conservation",)
        assert report.ok

    def test_generator_failure_is_a_finding(self, monkeypatch):
        from repro.workloads.generator import WorkloadVerificationError

        def explode(profile):
            raise WorkloadVerificationError(
                profile.name, ["synthetic lint finding"])

        monkeypatch.setattr("repro.check.oracles.generate", explode)
        report = check_profile(profile_for("compress"), BUDGET)
        assert not report.ok
        assert report.by_oracle()["generate"] == 1
        assert "verifier gate" in str(report.violations[0])

    def test_execute_check_matches_check_profile(self):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              pb_entries=32, kind="check",
                              instructions=BUDGET)
        metrics = execute_check(spec)
        direct = check_profile(profile_for("compress"), BUDGET,
                               tc_entries=64, pb_entries=32).to_metrics()
        assert metrics == direct

    def test_fuzz_benchmarks_flow_through_execute_check(self):
        spec = ExperimentSpec(benchmark="fuzz-3", kind="check",
                              instructions=2_000)
        metrics = execute_check(spec)
        assert metrics["violations"] == 0


class TestBundleLaziness:
    def test_legs_materialise_on_demand(self):
        bundle = _bundle()
        assert "plain_run" not in bundle.__dict__
        check_determinism(bundle)
        # The determinism oracle never touches the timing legs.
        assert "plain_run" not in bundle.__dict__
        assert "stream" in bundle.__dict__

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            CheckBundle(profile_for("compress"), 0)


class TestOraclesCatchTampering:
    """Each oracle must actually fire when its invariant is broken."""

    def test_determinism_sees_divergent_regeneration(self):
        bundle = _bundle()
        other = generate(profile_for("compress", seed=999))
        bundle.__dict__["second_workload"] = other
        violations = check_determinism(bundle)
        assert violations
        assert all(v.oracle == "determinism" for v in violations)

    def test_determinism_sees_divergent_streams(self):
        bundle = _bundle()
        # Record 5 jumps 4 bytes further (and record 6 starts there).
        bundle.__dict__["second_stream"] = _moved_pc(bundle.stream, 6, 4)
        assert any("diverge" in v.message
                   for v in check_determinism(bundle))

    def test_conservation_sees_skewed_counter(self):
        bundle = _bundle()
        bundle.plain_run.stats.trace_hits += 1
        messages = [v.message for v in check_conservation(bundle)]
        assert any("trace_hits + trace_misses" in m for m in messages)

    def test_intervals_sees_skewed_total(self):
        bundle = _bundle()
        result, _bus = bundle.observed_run
        result.stats.idle_cycles += 1
        messages = [v.message for v in check_intervals(bundle)]
        assert any("idle_cycles" in m for m in messages)

    def test_cfg_sees_uncovered_pc(self):
        bundle = _bundle()
        records = list(bundle.stream)
        records[-1] = dataclasses.replace(records[-1], next_pc=0x10)
        records.append(dataclasses.replace(records[-1], pc=0x10,
                                           next_pc=0x14))
        bundle.__dict__["stream"] = Stream.from_records(records)
        assert any("not covered" in v.message for v in check_cfg(bundle))

    def test_cfg_sees_missing_edge(self):
        bundle = _bundle()
        stream = bundle.stream
        index = next(i for i, r in enumerate(stream)
                     if r.inst.is_conditional_branch and r.taken)
        bundle.__dict__["stream"] = _moved_pc(
            stream, index + 1, stream[index].pc + 8 - stream.pcs[index + 1])
        assert any(v.oracle == "cfg" for v in check_cfg(bundle))


class TestCoverageOracle:
    """The static-vs-dynamic containment loop closes — and its failure
    modes (broken predictor, exhausted budget, stray coverage) are each
    caught, so the oracle cannot silently rot (mutation tests)."""

    def test_clean_bundle_has_no_coverage_violations(self):
        assert check_coverage(_bundle()) == []

    @staticmethod
    def _shrunken(**overrides):
        """A predict_coverage stand-in returning a damaged prediction."""
        from repro.static.predictor import predict_coverage

        def broken(image, config=None, facts=None):
            real = predict_coverage(image, config=config, facts=facts)
            return dataclasses.replace(real, **overrides)

        return broken

    def test_dropped_start_points_are_caught(self, monkeypatch):
        """Mutation test: a predictor that forgets start points must
        fail the oracle, not pass silently."""
        bundle = _bundle()
        sample = frozenset(sorted(
            {t.start_pc for t in bundle.traces})[:1])
        monkeypatch.setattr(
            "repro.static.predictor.predict_coverage",
            self._shrunken(start_pcs=sample))
        violations = check_coverage(bundle)
        assert any("not statically predicted" in v.message
                   for v in violations)

    def test_dropped_coverage_is_caught(self, monkeypatch):
        bundle = _bundle()
        monkeypatch.setattr(
            "repro.static.predictor.predict_coverage",
            self._shrunken(covered_pcs=frozenset()))
        violations = check_coverage(bundle)
        assert any("outside predicted coverage" in v.message
                   for v in violations)

    def test_incomplete_prediction_is_flagged(self, monkeypatch):
        bundle = _bundle()
        monkeypatch.setattr(
            "repro.static.predictor.predict_coverage",
            self._shrunken(complete=False))
        violations = check_coverage(bundle)
        assert len(violations) == 1
        assert "incomplete" in violations[0].message

    def test_stray_coverage_is_flagged(self, monkeypatch):
        """Claiming a pc outside static reachability is gross
        over-approximation and must violate."""
        bundle = _bundle()
        bogus = bundle.image.code_end + 0x1000
        monkeypatch.setattr(
            "repro.static.predictor.predict_coverage",
            self._shrunken(covered_pcs=frozenset({bogus})
                           | self._live(bundle)))
        violations = check_coverage(bundle)
        assert any("reachability" in v.message for v in violations)

    @staticmethod
    def _live(bundle):
        from repro.static.predictor import predict_coverage
        return predict_coverage(bundle.image).covered_pcs


class TestOracleRegistry:
    def test_every_oracle_callable_and_named(self):
        assert set(oracle_names()) == set(ORACLES)
        for name, oracle in ORACLES.items():
            assert callable(oracle), name

    def test_report_by_oracle_counts(self):
        report = CheckReport(profile=profile_for("compress"),
                             instructions=BUDGET, tc_entries=128,
                             pb_entries=64, static_seed=False,
                             oracles=("cfg",))
        report.violations = [Violation("cfg", "a"), Violation("cfg", "b")]
        assert report.by_oracle() == {"cfg": 2, "generate": 0}
        assert not report.ok
