"""The paper's claims, one test per row of EXPERIMENTS.md's verdict table.

Every exhibit is computed once per module through the same
``*_specs``/``*_from_results`` drivers ``repro all`` uses, at the
instruction budget in ``REPRO_INSTRUCTIONS`` (read once, at import;
default 20 000, the budget of CI's ``repro all`` job).  EXPERIMENTS.md
quotes its numbers at 60 000; CI runs this file at that budget too::

    REPRO_INSTRUCTIONS=60000 PYTHONPATH=src python -m pytest \\
        tests/test_paper_claims.py -q

A claim the code does not support is a strict ``xfail`` whose reason
states the measured numbers, and its verdict row says **no**.  The
parity test at the bottom keeps the table and this file in step: each
row names exactly one test here, and each test here is named by a row.
"""

from __future__ import annotations

import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    DYNAMIC_BENCHMARKS,
    dynamic_specs,
    figure5_points,
    figure5_specs,
    figure6_from_results,
    figure6_specs,
    figure8_from_results,
    figure8_specs,
    tables_from_results,
    tables_specs,
)
from repro.core import ConstructorConfig
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    StreamCache,
    build_frontend_config,
)
from repro.sim import run_frontend
from repro.trace import SelectionConfig
from repro.workloads import SPEC95_NAMES

BUDGET = int(os.environ.get("REPRO_INSTRUCTIONS", "20000"))

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: The Table configuration every ablation varies one knob of.
TABLE_CONFIG = build_frontend_config(256, 256)

#: The static splits of a 512-entry budget that the dynamic-partition
#: controller is judged against.
DYNAMIC_ENVELOPE = [ExperimentSpec(benchmark=name, tc_entries=512 - pb,
                                   pb_entries=pb, instructions=BUDGET)
                    for name in DYNAMIC_BENCHMARKS for pb in (32, 128, 256)]


# ----------------------------------------------------------------------
# Exhibits, each computed once per module
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def results():
    """Every exhibit's points, run in one deduplicated pass over two
    worker processes, as ``repro all --jobs 2`` runs them."""
    specs = [*(spec for name in SPEC95_NAMES
               for spec in figure5_specs(name, BUDGET)),
             *tables_specs(BUDGET), *figure6_specs(BUDGET),
             *figure8_specs(BUDGET), *dynamic_specs(BUDGET),
             *DYNAMIC_ENVELOPE]
    return dict(zip(specs, ExperimentRunner(jobs=2).run(specs)))


@pytest.fixture(scope="module")
def figure5(results):
    """Misses per 1000 instructions by benchmark, then (TC, PB)."""
    return {name: {(p.tc_entries, p.pb_entries): p.miss_per_ki
                   for p in figure5_points([results[spec] for spec in
                                            figure5_specs(name, BUDGET)])}
            for name in SPEC95_NAMES}


@pytest.fixture(scope="module")
def tables(results):
    return tables_from_results([results[spec]
                                for spec in tables_specs(BUDGET)])


@pytest.fixture(scope="module")
def figure6(results):
    return {r.benchmark: r.speedup_percent for r in figure6_from_results(
        [results[spec] for spec in figure6_specs(BUDGET)])}


@pytest.fixture(scope="module")
def figure8(results):
    return figure8_from_results([results[spec]
                                 for spec in figure8_specs(BUDGET)])


@pytest.fixture(scope="module")
def streams():
    """Images and streams for the ablations' hand-built configs."""
    return StreamCache(BUDGET)


def frontend(streams, name, config):
    """One frontend run of ``name``'s stream under ``config``."""
    return run_frontend(streams.image(name), config,
                        plan=streams.plan(name, BUDGET, config))


def with_precon(**overrides):
    """The Table configuration with preconstruction knobs overridden."""
    return replace(TABLE_CONFIG, preconstruction=replace(
        TABLE_CONFIG.preconstruction, **overrides))


def same_tc_cut(figure5, name):
    """Fraction of 256-entry-TC misses a 256-entry PB removes."""
    return 1 - figure5[name][(256, 256)] / figure5[name][(256, 0)]


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def test_figure5_gcc_go_same_tc_cut_in_paper_band(figure5):
    """Abstract: gcc, go and vortex "see a 30% to 80% reduction in
    trace cache misses"."""
    for name in ("gcc", "go"):
        assert 0.30 <= same_tc_cut(figure5, name) <= 0.80, name


@pytest.mark.xfail(strict=True, reason=(
    "vortex's same-TC cut is 23% at 20k and 24% at 60k instructions, "
    "below the paper's 30-80%"))
def test_figure5_vortex_same_tc_cut_in_paper_band(figure5):
    assert 0.30 <= same_tc_cut(figure5, "vortex") <= 0.80


def test_figure5_large_working_sets_cut_a_fifth(figure5):
    """The three largest working sets lose at least a fifth of their
    trace-cache misses to a 256-entry PB at the same TC size."""
    for name in ("gcc", "go", "vortex"):
        assert same_tc_cut(figure5, name) >= 0.20, name


def test_figure5_equal_area_gcc_go(figure5):
    """"The benefit from preconstruction is noticeably more significant
    than allocating comparable area to the trace cache." """
    for name in ("gcc", "go"):
        assert figure5[name][(256, 256)] < figure5[name][(512, 0)], name


@pytest.mark.xfail(BUDGET >= 60_000, strict=True, reason=(
    "at 60k instructions vortex's 512-entry TC alone misses 2.67/KI, "
    "256 TC + 256 PB 2.90/KI (at 20k: 7.80 vs 6.55)"))
def test_figure5_equal_area_vortex(figure5):
    assert figure5["vortex"][(256, 256)] < figure5["vortex"][(512, 0)]


def test_figure5_small_working_sets_little_room(figure5):
    """compress and ijpeg "have such small working sets that even a
    very small trace cache performs very well"."""
    for name in ("compress", "ijpeg"):
        assert figure5[name][(256, 0)] < 5.0, name


def test_figure5_tc_only_miss_rate_falls_with_size(figure5):
    """Every TC-only curve is non-increasing in trace-cache size."""
    for name, grid in figure5.items():
        curve = [grid[(tc, 0)] for tc in (64, 128, 256, 512, 1024)]
        assert curve == sorted(curve, reverse=True), (name, curve)


# ----------------------------------------------------------------------
# Tables 1-3 (512-entry TC vs 256 TC + 256 PB, gcc and go)
# ----------------------------------------------------------------------
def test_table1_supply_drop(tables):
    """Instructions supplied by the I-cache are "reduced by over 20%"
    for gcc; go's weakly-biased branches give a smaller cut."""
    gcc, go = (row.change_percent for row in tables.table1)
    assert gcc < -20.0
    assert gcc < go < 0.0


def test_table2_misses_rise(tables):
    """Preconstruction's own fetches raise total I-cache misses."""
    for row in tables.table2:
        assert row.preconstruction > row.baseline, row.benchmark


def test_table3_miss_supply_drops_more_than_table1(tables):
    """Instructions supplied by I-cache misses drop, and by more than
    total supply does: preconstruction prefetches for the slow path."""
    for supply, missed in zip(tables.table1, tables.table3):
        assert missed.change_percent < supply.change_percent < 0.0, \
            missed.benchmark


# ----------------------------------------------------------------------
# Figure 6 (256-entry TC vs 128 TC + 128 PB, full timing model)
# ----------------------------------------------------------------------
def test_figure6_every_point_gains(figure6):
    """Preconstruction speeds up all four benchmarks by more than 1%."""
    assert min(figure6.values()) > 1.0, figure6


def test_figure6_largest_miss_cuts_gain_most(figure6):
    """gcc and vortex, whose miss rates drop most, gain most."""
    assert min(figure6["gcc"], figure6["vortex"]) \
        > max(figure6["go"], figure6["perl"]), figure6


# ----------------------------------------------------------------------
# Figure 8 (extended pipeline: preconstruction + preprocessing)
# ----------------------------------------------------------------------
def test_figure8_combined_beats_each_part(figure8):
    """Both mechanisms help on their own, and together beat either."""
    for r in figure8:
        parts = (r.precon_percent, r.preproc_percent)
        assert 0.5 < min(parts) and r.combined_percent > max(parts), \
            (r.benchmark, parts, r.combined_percent)


@pytest.mark.xfail(strict=True, reason=(
    "vortex's preprocessing gain is +0.9% at 20k and +1.5% at 60k "
    "(paper 8-12%); at 60k go and perl preconstruction give +1.7% and "
    "+1.4% (paper 2-8%) and vortex combined +4.6% (paper 12-20%)"))
def test_figure8_bars_in_paper_bands(figure8):
    for r in figure8:
        assert 2.0 <= r.precon_percent <= 8.0, r.benchmark
        assert 8.0 <= r.preproc_percent <= 12.0, r.benchmark
        assert 12.0 <= r.combined_percent <= 20.0, r.benchmark


def test_figure8_average_combined_gain(figure8):
    """The combined mechanisms' mean gain exceeds 5% (paper: 14%)."""
    mean = sum(r.combined_percent for r in figure8) / len(figure8)
    assert mean > 5.0, mean


def test_figure8_synergy_near_neutral(figure8):
    """Combined is within a point of the sum of the parts; the paper's
    "greater than the sum" does not reproduce."""
    for r in figure8:
        assert abs(r.synergy) < 1.0, (r.benchmark, r.synergy)


# ----------------------------------------------------------------------
# Ablations of the design choices the paper calls out
# ----------------------------------------------------------------------
def test_ablation_alignment(streams):
    """§2.2: the multiple-of-four alignment rule "limits the overall
    number of unique traces"; preconstruction works either way as long
    as both sides agree on it."""
    unaligned = replace(TABLE_CONFIG,
                        selection=SelectionConfig(align_multiple=0))
    stats = {(name, aligned): frontend(
                 streams, name, TABLE_CONFIG if aligned else unaligned).stats
             for name in ("gcc", "vortex") for aligned in (True, False)}
    assert all(s.buffer_hits > 0 for s in stats.values())
    assert (stats["gcc", True].trace_miss_rate_per_ki
            < stats["gcc", False].trace_miss_rate_per_ki)


def test_ablation_branch_bias(streams):
    """§2.1: following highly-biased branches only their dominant way
    beats static single-direction policies (within 10% on strongly
    biased vortex, strictly on weakly biased go)."""
    rates = {(name, policy): frontend(streams, name, with_precon(
                 constructor=ConstructorConfig(branch_policy=policy)))
             .stats.trace_miss_rate_per_ki
             for name in ("vortex", "go")
             for policy in ("biased", "taken", "not_taken")}
    for policy in ("taken", "not_taken"):
        assert rates["vortex", "biased"] <= rates["vortex", policy] * 1.10
        assert rates["go", "biased"] < rates["go", policy]


def test_ablation_start_stack(streams):
    """§3.2: "a stack of depth 16 works well" and newest-first is at
    least as good as FIFO (within 10%)."""
    depths = {depth: frontend(streams, "gcc", with_precon(
                  start_stack_depth=depth)).stats
              for depth in (4, 8, 16, 32)}
    paper = depths[16].trace_miss_rate_per_ki
    for stats in depths.values():
        assert stats.buffer_hits > 0
        assert stats.trace_miss_rate_per_ki < paper * 1.5
    fifo = frontend(streams, "gcc", with_precon(stack_order="oldest_first"))
    assert paper <= fifo.stats.trace_miss_rate_per_ki * 1.10


def test_ablation_region_bounds(streams):
    """§3.1/§3.3.1: smaller prefetch caches end more regions at the
    fetch bound; every bound keeps preconstruction working."""
    prefetch = {size: frontend(streams, "gcc", with_precon(
                    prefetch_cache_instructions=size))
                for size in (64, 256, 1024)}
    failures = [frontend(streams, "gcc", with_precon(
                    buffer_failure_limit=limit)) for limit in (1, 4, 16)]
    assert (prefetch[64].preconstruction.stats.regions_fetch_bound
            >= prefetch[1024].preconstruction.stats.regions_fetch_bound)
    for result in [*prefetch.values(), *failures]:
        assert result.stats.buffer_hits > 0


def test_extension_dynamic_partition(results):
    """§5.1 future work: the hill-climbing TC/PB controller stays inside
    the static envelope of a 512-entry budget (within 15% of the worst
    split, 50% of the best).

    At 20k instructions the controller completes no epoch, so the
    dynamic run equals its static start; only the 60k budget judges it,
    and there the controller must have completed an epoch.
    """
    specs = dynamic_specs(BUDGET)
    for dynamic in specs[1::2]:
        name = dynamic.benchmark
        if BUDGET >= 60_000:
            assert results[dynamic].metrics["pb_trajectory"], name
        statics = [results[spec].metrics["trace_misses_per_ki"]
                   for spec in DYNAMIC_ENVELOPE if spec.benchmark == name]
        moving = results[dynamic].metrics["trace_misses_per_ki"]
        assert moving <= max(statics) * 1.15, (name, moving, statics)
        assert moving <= min(statics) * 1.5, (name, moving, statics)


# ----------------------------------------------------------------------
# The verdict table and this file stay in step
# ----------------------------------------------------------------------
def verdict_rows(text):
    """(verdict, test names) per data row of the verdict table."""
    section = text.split("## Reproduction verdict per exhibit", 1)[1]
    table = [line.strip().strip("|") for line in
             section.split("\n## ", 1)[0].splitlines()
             if line.startswith("|")]
    rows = []
    for line in table[2:]:          # past the header and its rule
        cells = [cell.strip() for cell in line.split("|")]
        rows.append((cells[1], re.findall(r"`(test_\w+)`", cells[-1])))
    return rows


def claim_tests():
    """Name -> expected-to-fail, for every claim test in this module."""
    return {name: any(mark.name == "xfail"
                      for mark in getattr(test, "pytestmark", []))
            for name, test in globals().items()
            if name.startswith("test_") and callable(test)
            and name != "test_verdict_table_names_every_claim_test"}


def test_verdict_table_names_every_claim_test():
    rows = verdict_rows(EXPERIMENTS.read_text())
    named = []
    for verdict, tests in rows:
        if verdict == "n/a":
            assert tests == [], verdict
            continue
        assert len(tests) == 1, (verdict, tests)
        named += tests
    claims = claim_tests()
    assert sorted(named) == sorted(claims)
    for verdict, tests in rows:
        for name in tests:
            # A **no** verdict is exactly a claim marked xfail.
            assert verdict.startswith("**no**") == claims[name], name
