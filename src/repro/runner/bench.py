"""Seeded hot-path benchmark trajectory (``repro bench``).

Times cold runs of the paper's heaviest exhibit workloads — the
Figure-5 frontend sweep and the Tables 1-3 traffic points — through the
ordinary :class:`~repro.runner.pool.ExperimentRunner`, with the result
cache disabled and a fresh stream cache, so the numbers measure the
simulator itself rather than the cache layer.

The module pins the pre-overhaul wall-clock baselines (measured on the
commit before the hot-path PR, same machine class, ``jobs=1``, cold)
so every subsequent run reports its speedup against a fixed origin
rather than against whatever happened to run last.  Budgets are pinned
too: the baselines are only comparable at the instruction counts they
were recorded at, so ``repro bench`` ignores ``--instructions``.

``write_bench_report`` serialises the measurement — baseline, current
and speedup per section, plus the full scheduler timing report — to
``BENCH_hotpath.json``, the artifact CI uploads.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.runner.pool import ExperimentRunner
from repro.runner.spec import ExperimentSpec
from repro.telemetry.session import current_telemetry, utc_timestamp

#: Commit the baselines were measured on (the parent of the hot-path
#: overhaul PR), recorded so a report is interpretable on its own.
BASELINE_COMMIT = "61d73a5"

#: Committed append-only history of bench runs — what ``repro
#: report``'s trajectory panel and ``bench --check`` (against a
#: ``.jsonl``) read.
TRAJECTORY_FILE = "BENCH_trajectory.jsonl"

#: Pinned budgets — changing these invalidates the baselines.
FULL_INSTRUCTIONS = 60_000
QUICK_INSTRUCTIONS = 20_000
QUICK_BENCHMARKS = ("gcc", "go")

#: Cold single-job wall-clock seconds on :data:`BASELINE_COMMIT`.
BASELINE_SECONDS: dict[tuple[str, str], float] = {
    ("full", "figure5"): 104.90,   # 160 specs, all benchmarks @60k
    ("full", "tables"): 2.95,      # 4 specs @60k
    ("quick", "figure5"): 9.67,    # 40 specs, gcc+go @20k
}


def bench_sections(quick: bool = False
                   ) -> list[tuple[str, list[ExperimentSpec]]]:
    """The (name, specs) sections one bench mode measures."""
    from repro.analysis.sweeps import figure5_specs
    from repro.analysis.tables import TABLE_BENCHMARKS, tables_specs
    from repro.workloads import SPEC95_NAMES

    if quick:
        specs = [spec for benchmark in QUICK_BENCHMARKS
                 for spec in figure5_specs(benchmark, QUICK_INSTRUCTIONS)]
        return [("figure5", specs)]
    return [
        ("figure5", [spec for benchmark in SPEC95_NAMES
                     for spec in figure5_specs(benchmark,
                                               FULL_INSTRUCTIONS)]),
        ("tables", tables_specs(FULL_INSTRUCTIONS, TABLE_BENCHMARKS)),
    ]


def run_bench(quick: bool = False, jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              profile_dir: Optional[str | Path] = None,
              simulator: str = "scalar") -> dict[str, Any]:
    """Run one bench mode cold and return the report payload.

    Each section gets its own runner (no result cache, no shared
    stream cache) so section times are independent cold measurements.
    Speedups are only meaningful at ``jobs=1`` — the baselines are
    single-job — but parallel runs still record their wall time.
    ``profile_dir`` forwards to the runner's per-point ``cProfile``
    capture (expect skewed wall times under it).  ``simulator`` sets
    every point's (inert) ``simulator`` field
    (:data:`~repro.runner.spec.SIMULATOR_KINDS`); the payload records
    it and ``bench --check`` refuses to compare wall times across
    values.
    """
    from repro.runner.spec import SIMULATOR_KINDS

    if simulator not in SIMULATOR_KINDS:
        raise ValueError(f"unknown simulator {simulator!r}; "
                         f"choose from {SIMULATOR_KINDS}")
    tele = current_telemetry()
    mode = "quick" if quick else "full"
    sections: dict[str, Any] = {}
    reports = []
    for name, specs in bench_sections(quick):
        if simulator != "scalar":
            specs = [spec.replace(simulator=simulator) for spec in specs]
        runner = ExperimentRunner(jobs=jobs, cache=None, progress=progress,
                                  profile_dir=profile_dir)
        started = time.perf_counter()
        if tele:
            with tele.span("bench.section", section=name,
                           specs=len(specs)):
                runner.run(specs)
        else:
            runner.run(specs)
        elapsed = time.perf_counter() - started
        baseline = BASELINE_SECONDS[(mode, name)]
        sections[name] = {
            "specs": len(specs),
            "baseline_seconds": baseline,
            "current_seconds": round(elapsed, 2),
            "speedup": round(baseline / elapsed, 2) if elapsed else None,
        }
        reports.append(runner.report.to_dict())

    total_baseline = sum(s["baseline_seconds"] for s in sections.values())
    total_current = sum(s["current_seconds"] for s in sections.values())
    return {
        "schema": 1,
        "mode": mode,
        "jobs": jobs,
        "simulator": simulator,
        "baseline_commit": BASELINE_COMMIT,
        "instructions": (QUICK_INSTRUCTIONS if quick
                         else FULL_INSTRUCTIONS),
        "sections": sections,
        "total": {
            "baseline_seconds": round(total_baseline, 2),
            "current_seconds": round(total_current, 2),
            "speedup": (round(total_baseline / total_current, 2)
                        if total_current else None),
        },
        "timing_reports": reports,
    }


def write_bench_report(payload: dict[str, Any],
                       path: str | Path = "BENCH_hotpath.json") -> Path:
    """Write ``payload`` as deterministic JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


# ----------------------------------------------------------------------
# Bench trajectory (append-only history)
# ----------------------------------------------------------------------
def _git_commit() -> str:
    """The working tree's short commit, or ``"unknown"`` outside git."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = output.stdout.strip()
    return commit or "unknown"


def trajectory_row(payload: dict[str, Any],
                   commit: Optional[str] = None) -> dict[str, Any]:
    """One history line for a bench payload (commit, mode, sections)."""
    return {
        "schema": 1,
        "recorded_at": utc_timestamp(),
        "commit": commit if commit is not None else _git_commit(),
        "mode": payload.get("mode"),
        "jobs": payload.get("jobs"),
        # Payloads from before the simulator field existed are scalar
        # by construction.
        "simulator": payload.get("simulator", "scalar"),
        "sections": {
            name: {"specs": section.get("specs"),
                   "current_seconds": section.get("current_seconds")}
            for name, section in payload.get("sections", {}).items()
        },
        "total_seconds": payload.get("total", {}).get("current_seconds"),
    }


def append_trajectory(payload: dict[str, Any],
                      path: str | Path = TRAJECTORY_FILE,
                      commit: Optional[str] = None) -> Path:
    """Append one run to the committed history; returns the path."""
    target = Path(path)
    row = trajectory_row(payload, commit=commit)
    with target.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return target


def read_trajectory(path: str | Path = TRAJECTORY_FILE
                    ) -> list[dict[str, Any]]:
    """All history rows, oldest first; missing file reads as empty.

    Damaged lines (a truncated append from a killed run) are skipped
    rather than poisoning the whole history.
    """
    target = Path(path)
    try:
        text = target.read_text()
    except OSError:
        return []
    rows: list[dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def trajectory_reference(path: str | Path, mode: str
                         ) -> Optional[dict[str, Any]]:
    """The newest history row for ``mode``, as a ``check_bench``
    reference payload — ``bench --check history.jsonl`` compares the
    fresh run against the last recorded run of the same mode."""
    for row in reversed(read_trajectory(path)):
        if row.get("mode") != mode:
            continue
        return {"mode": row.get("mode"),
                "simulator": row.get("simulator", "scalar"),
                "sections": row.get("sections", {})}
    return None


def check_bench(payload: dict[str, Any], reference: dict[str, Any],
                tolerance: float = 0.5) -> list[str]:
    """Compare a fresh bench payload against a pinned reference report.

    The observability PR's guard-rail: with instrumentation off (the
    default), each section's wall time must stay within ``tolerance``
    (fractional, e.g. ``0.5`` = +50%) of the reference's recorded
    ``current_seconds``.  Returns a list of violations (empty = pass).
    Sections missing from either side are reported, not ignored.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    problems: list[str] = []
    if payload.get("mode") != reference.get("mode"):
        problems.append(f"mode mismatch: ran {payload.get('mode')!r}, "
                        f"reference is {reference.get('mode')!r}")
        return problems
    # Wall times measure a specific kernel: comparing a vectorized run
    # against a scalar reference (or vice versa) would score the kernel
    # swap as a speedup/regression.  Rows and reports from before the
    # field existed are scalar by construction.
    ran = payload.get("simulator", "scalar")
    expected = reference.get("simulator", "scalar")
    if ran != expected:
        problems.append(f"simulator mismatch: ran {ran!r}, reference is "
                        f"{expected!r} — cross-kernel wall times are not "
                        f"comparable (re-record the reference with "
                        f"--simulator {ran})")
        return problems
    # A hand-edited or truncated report may lack "sections" entirely;
    # that is a reportable problem, not a KeyError.
    sections = payload.get("sections")
    if not isinstance(sections, dict):
        problems.append("payload has no 'sections' mapping")
        return problems
    ref_sections = reference.get("sections", {})
    for name, ref in ref_sections.items():
        section = sections.get(name)
        if section is None:
            problems.append(f"section {name!r} missing from this run")
            continue
        limit = ref["current_seconds"] * (1.0 + tolerance)
        if section["current_seconds"] > limit:
            problems.append(
                f"{name}: {section['current_seconds']:.2f}s exceeds "
                f"{ref['current_seconds']:.2f}s "
                f"+{tolerance:.0%} ({limit:.2f}s)")
    for name in sections:
        if name not in ref_sections:
            problems.append(f"section {name!r} has no reference baseline")
    return problems


def regressed_sections(payload: dict[str, Any], reference: dict[str, Any],
                       tolerance: float = 0.5) -> dict[str, float]:
    """Sections whose wall time exceeds the reference limit.

    The minimizable subset of :func:`check_bench`'s findings: mode and
    section-presence mismatches cannot be reproduced by re-timing, so
    only genuine slowdowns come back — ``{section: limit_seconds}``.
    """
    regressed: dict[str, float] = {}
    sections = payload.get("sections")
    if payload.get("mode") != reference.get("mode") \
            or (payload.get("simulator", "scalar")
                != reference.get("simulator", "scalar")) \
            or not isinstance(sections, dict):
        return regressed
    for name, ref in reference.get("sections", {}).items():
        section = sections.get(name)
        if section is None:
            continue
        limit = ref["current_seconds"] * (1.0 + tolerance)
        if section["current_seconds"] > limit:
            regressed[name] = round(limit, 2)
    return regressed


def bench_repro_script(payload: dict[str, Any], reference: dict[str, Any],
                       tolerance: float = 0.5) -> str:
    """A self-contained repro script for a failed ``bench --check``.

    The regression-triage counterpart of the fuzz minimizer's repro
    scripts: instead of re-running the whole bench matrix, the script
    re-times *only the regressed sections* (the minimized failing
    subset) against the reference limits embedded at generation time,
    and exits non-zero while any section still exceeds its limit.
    """
    regressed = regressed_sections(payload, reference, tolerance)
    if not regressed:
        raise ValueError("no regressed sections to reproduce")
    mode = payload.get("mode", "quick")
    simulator = payload.get("simulator", "scalar")
    limits = "".join(
        f"    {name!r}: {limit},\n" for name, limit in sorted(regressed.items()))
    observed = "".join(
        f"#   {name}: {payload['sections'][name]['current_seconds']:.2f}s "
        f"(limit {limit:.2f}s)\n"
        for name, limit in sorted(regressed.items()))
    return (
        "#!/usr/bin/env python\n"
        '"""Minimized repro for a `repro bench --check` regression.\n'
        "\n"
        "Run with the repository on PYTHONPATH:\n"
        "    PYTHONPATH=src python bench_regression_repro.py\n"
        '"""\n'
        "# Regressed sections at generation time:\n"
        f"{observed}"
        "import time\n"
        "\n"
        "from repro.runner.bench import bench_sections\n"
        "from repro.runner.pool import ExperimentRunner\n"
        "\n"
        f"MODE = {mode!r}\n"
        f"SIMULATOR = {simulator!r}\n"
        "LIMIT_SECONDS = {\n"
        f"{limits}"
        "}\n"
        "\n"
        "failed = False\n"
        "for name, specs in bench_sections(quick=MODE == 'quick'):\n"
        "    if name not in LIMIT_SECONDS:\n"
        "        continue\n"
        "    specs = [s.replace(simulator=SIMULATOR) for s in specs]\n"
        "    runner = ExperimentRunner(jobs=1, cache=None)\n"
        "    started = time.perf_counter()\n"
        "    runner.run(specs)\n"
        "    elapsed = time.perf_counter() - started\n"
        "    limit = LIMIT_SECONDS[name]\n"
        "    verdict = 'REGRESSED' if elapsed > limit else 'ok'\n"
        "    print(f'{name}: {elapsed:.2f}s (limit {limit:.2f}s) {verdict}')\n"
        "    failed = failed or elapsed > limit\n"
        "raise SystemExit(1 if failed else 0)\n"
    )


def write_bench_repro(payload: dict[str, Any], reference: dict[str, Any],
                      tolerance: float = 0.5,
                      path: str | Path = "bench_regression_repro.py"
                      ) -> Path:
    """Write :func:`bench_repro_script`'s output; returns the path."""
    target = Path(path)
    target.write_text(bench_repro_script(payload, reference, tolerance))
    return target


def _format_speedup(speedup: Optional[float]) -> str:
    """``1.87x`` — or ``n/a`` for a section too fast to time (a
    near-zero elapsed leaves ``speedup`` as ``None``)."""
    return f"{speedup:.2f}x" if speedup is not None else "n/a"


def format_bench(payload: dict[str, Any]) -> str:
    """Human-readable one-block summary of a bench payload."""
    lines = [f"repro bench ({payload['mode']}, jobs={payload['jobs']}, "
             f"baseline {payload['baseline_commit']})"]
    for name, section in payload["sections"].items():
        lines.append(
            f"  {name:8s} {section['specs']:4d} specs: "
            f"{section['current_seconds']:8.2f}s "
            f"(baseline {section['baseline_seconds']:.2f}s, "
            f"{_format_speedup(section['speedup'])})")
    total = payload["total"]
    lines.append(f"  {'total':8s} {'':4s}       "
                 f"{total['current_seconds']:8.2f}s "
                 f"(baseline {total['baseline_seconds']:.2f}s, "
                 f"{_format_speedup(total['speedup'])})")
    return "\n".join(lines)
