"""Tests for the synthetic workload generator and SPEC95 stand-ins."""

import pytest

from repro.engine import FunctionalEngine
from repro.isa import Kind
from repro.program import static_stats
from repro.trace import traces_of_stream
from repro.workloads import (
    LARGE_WORKING_SET,
    SPEC95_NAMES,
    SPEC95_PROFILES,
    WorkloadProfile,
    build_workload,
    generate,
)


@pytest.fixture(scope="module")
def small_profile():
    return WorkloadProfile(name="tiny", seed=7, procedures=6,
                           constructs_min=3, constructs_max=5,
                           switch_weight=0.15, call_guard_prob=0.5)


@pytest.fixture(scope="module")
def small_workload(small_profile):
    return generate(small_profile)


class TestGenerator:
    def test_deterministic(self, small_profile):
        first = generate(small_profile)
        second = generate(small_profile)
        assert first.image.instructions == second.image.instructions
        assert first.image.data == second.image.data

    def test_different_seeds_differ(self, small_profile):
        from dataclasses import replace
        other = generate(replace(small_profile, seed=8))
        base = generate(small_profile)
        assert other.image.instructions != base.image.instructions

    def test_runs_without_wild_jumps(self, small_workload):
        engine = FunctionalEngine(small_workload.image)
        stream = engine.run(30_000)
        assert len(stream) == 30_000  # no ExecutionError, no early halt

    def test_contains_all_construct_kinds(self, small_workload):
        stats = static_stats(small_workload.image)
        assert stats.conditional_branches > 0
        assert stats.backward_branches > 0
        assert stats.calls > 0
        assert stats.indirect_jumps > 0  # switches emitted
        assert stats.returns > 0

    def test_calls_and_returns_balance(self, small_workload):
        """Every dynamic call is matched by a return to its call site."""
        stream = FunctionalEngine(small_workload.image).run(30_000)
        stack = []
        for record in stream:
            if record.inst.is_call:
                stack.append(record.pc + 4)
            elif record.inst.is_return:
                assert stack, "return without a call"
                assert record.next_pc == stack.pop()

    def test_register_discipline_across_calls(self, small_workload):
        """Loop counters survive calls (callee-save discipline): every
        backward branch eventually falls through — no loop runs away."""
        stream = FunctionalEngine(small_workload.image).run(30_000)
        taken_streak: dict[int, int] = {}
        for record in stream:
            if record.inst.is_backward_branch():
                if record.taken:
                    streak = taken_streak.get(record.pc, 0) + 1
                    taken_streak[record.pc] = streak
                    assert streak < 2000, "runaway loop"
                else:
                    taken_streak[record.pc] = 0

    def test_switches_dispatch_through_data_segment(self, small_workload):
        """Indirect jumps land on code addresses stored in data."""
        image = small_workload.image
        code_targets = {v for v in image.data.values() if v in image}
        stream = FunctionalEngine(image).run(30_000)
        for record in stream:
            if (record.inst.kind is Kind.JUMP_INDIRECT
                    and not record.inst.is_return):
                assert record.next_pc in code_targets


class TestSpec95Suite:
    def test_all_eight_benchmarks(self):
        assert len(SPEC95_NAMES) == 8
        assert set(LARGE_WORKING_SET) <= set(SPEC95_NAMES)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_workload("spice")

    @pytest.mark.parametrize("name", SPEC95_NAMES)
    def test_benchmark_runs(self, name):
        workload = build_workload(name)
        stream = FunctionalEngine(workload.image).run(5_000)
        assert len(stream) == 5_000

    def test_working_set_ordering(self):
        """The paper's regime: gcc/go/vortex stress the trace cache far
        more than compress/ijpeg."""
        unique = {}
        for name in ("gcc", "compress"):
            workload = build_workload(name)
            stream = FunctionalEngine(workload.image).run(40_000)
            unique[name] = len({t.trace_id
                                for t in traces_of_stream(stream)})
        assert unique["gcc"] > 4 * unique["compress"]

    def test_profiles_have_matching_names(self):
        for name, profile in SPEC95_PROFILES.items():
            assert profile.name == name


class TestProfileValidation:
    def test_switch_arms_power_of_two(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", switch_arms=3)

    def test_bias_probability_range(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", biased_fraction=1.5)

    def test_guard_phases_power_of_two(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", guard_phases=3)

    def test_construct_weights_normalised(self):
        profile = WorkloadProfile(name="x", loop_weight=2.0,
                                  diamond_weight=2.0, switch_weight=0.0,
                                  call_weight=0.0)
        weights = profile.construct_weights
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert weights["block"] == pytest.approx(0.0)
