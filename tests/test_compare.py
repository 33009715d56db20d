"""Tests for the head-to-head mechanism comparison (`repro compare`)."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    COMPARE_PB_SIZES,
    compare_from_results,
    compare_specs,
    compare_sweep,
    format_compare,
    rows_to_dicts,
)
from repro.frontends import mechanism_names
from repro.runner import sweep

GOLDEN = Path(__file__).parent / "golden" / "compare_mechanisms.json"

INSTRUCTIONS = 8_000


class TestCompareSpecs:
    def test_grid_shape(self):
        specs = compare_specs("gcc", instructions=INSTRUCTIONS)
        assert len(specs) == 1 + len(mechanism_names()) * len(COMPARE_PB_SIZES)
        # One shared baseline first.
        assert specs[0].pb_entries == 0
        assert all(spec.pb_entries > 0 for spec in specs[1:])
        assert all(spec.benchmark == "gcc" for spec in specs)

    def test_mechanism_subset_preserves_order(self):
        specs = compare_specs("gcc", ["pmap", "nextline", "pmap"],
                              pb_sizes=(64,), instructions=INSTRUCTIONS)
        assert [s.mechanism for s in specs[1:]] == ["pmap", "nextline"]

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            compare_specs("gcc", ["markov"], instructions=INSTRUCTIONS)

    def test_zero_budget_rejected(self):
        # A zero budget is the baseline; as a sweep budget it would
        # repeat the baseline row once per mechanism.
        with pytest.raises(ValueError, match="pb_sizes"):
            compare_specs("gcc", ["mana"], pb_sizes=(0,),
                          instructions=INSTRUCTIONS)

    def test_budget_the_buffer_ways_do_not_divide_rejected(self):
        with pytest.raises(ValueError, match="pb_sizes .* 2 ways"):
            compare_specs("gcc", ["preconstruction"], pb_sizes=(32, 33),
                          instructions=INSTRUCTIONS)
        # The prefetchers keep no set-associative buffer.
        assert len(compare_specs("gcc", ["mana"], pb_sizes=(33,),
                                 instructions=INSTRUCTIONS)) == 2

    def test_mechanism_in_spec_digest(self):
        specs = compare_specs("gcc", ["pmap", "nextline"], pb_sizes=(64,),
                              instructions=INSTRUCTIONS)
        assert specs[1].digest() != specs[2].digest()
        assert specs[1].replace(mechanism="nextline").digest() \
            == specs[2].digest()


class TestCompareAssembly:
    @pytest.fixture(scope="class")
    def rows(self):
        specs = compare_specs("compress", pb_sizes=(64,),
                              tc_entries=128, instructions=INSTRUCTIONS)
        return compare_from_results(sweep(specs))

    def test_baseline_relabelled(self, rows):
        assert rows[0].mechanism == "baseline"
        assert rows[0].pb_entries == 0
        assert {row.mechanism for row in rows[1:]} == set(mechanism_names())

    def test_rows_to_dicts_round_trips(self, rows):
        dicts = rows_to_dicts(rows)
        assert json.loads(json.dumps(dicts)) == dicts
        assert all("trace_misses_per_ki" in d and "cycles" in d
                   for d in dicts)

    def test_format_contains_all_mechanisms(self, rows):
        text = format_compare(rows, INSTRUCTIONS)
        assert "compress (tc=128, 8000 instructions)" in text
        for name in ("baseline",) + mechanism_names():
            assert name in text
        # The baseline row is its own reference point.
        baseline_line = next(line for line in text.splitlines()
                             if line.startswith("baseline"))
        assert baseline_line.rstrip().endswith("1.000")

    def test_preconstruction_uniquely_cuts_trace_misses(self, rows):
        """The asymmetry the exhibit exists to show: prefetchers leave
        trace misses at the baseline; preconstruction removes them."""
        by_mechanism = {row.mechanism: row for row in rows}
        base = by_mechanism["baseline"].metrics["trace_misses_per_ki"]
        for name in ("mana", "nextline", "pmap"):
            assert by_mechanism[name].metrics["trace_misses_per_ki"] == base
        precon = by_mechanism["preconstruction"]
        assert precon.metrics["trace_misses_per_ki"] < base
        assert precon.metrics["buffer_hits"] > 0


class TestGoldenPins:
    """Per-mechanism sweep results pinned for two SPEC stand-ins."""

    def test_sweep_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        rows = compare_sweep(["compress", "gcc"], tc_entries=128,
                             pb_sizes=(64,), instructions=INSTRUCTIONS)
        assert rows_to_dicts(rows) == golden

    def test_golden_covers_every_mechanism_twice(self):
        golden = json.loads(GOLDEN.read_text())
        for benchmark in ("compress", "gcc"):
            seen = {row["mechanism"] for row in golden
                    if row["benchmark"] == benchmark}
            assert seen == {"baseline", *mechanism_names()}


class TestCompareSweep:
    def test_multi_benchmark_grouping(self):
        rows = compare_sweep(["compress", "gcc"], ["nextline"],
                             tc_entries=128, pb_sizes=(64,),
                             instructions=INSTRUCTIONS)
        assert [row.benchmark for row in rows] == ["compress", "compress",
                                                   "gcc", "gcc"]
        text = format_compare(rows, INSTRUCTIONS)
        assert "compress (tc=128" in text and "gcc (tc=128" in text
