"""Seeded hot-path benchmark (``repro bench``).

Times cold runs of the paper's heaviest exhibit workloads — the
Figure-5 frontend sweep and the Tables 1-3 traffic points — through the
ordinary :class:`~repro.runner.ExperimentRunner`, with the result
cache disabled and a fresh stream cache, so the numbers measure the
simulator itself rather than the cache layer.

Budgets are pinned so that runs of one mode stay comparable across
commits; ``repro bench`` ignores ``--instructions``.  Each run's cold
wall seconds per section become one row of the committed history
:data:`TRAJECTORY_FILE`, and ``bench --check`` compares a fresh run
with the newest row of the same mode.  ``write_bench_report`` also
writes the full payload, scheduler timing reports included, to an
untracked ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.analysis.exhibits import EXHIBITS
from repro.obs.manifest import utc_timestamp
from repro.runner import ExperimentRunner, ExperimentSpec
from repro.telemetry.session import current_telemetry

#: Committed append-only history of bench runs — what ``repro
#: report``'s trajectory panel and ``bench --check`` read.
TRAJECTORY_FILE = "BENCH_trajectory.jsonl"

#: Pinned budgets — changing these makes new trajectory rows
#: incomparable with the old ones.
FULL_INSTRUCTIONS = 60_000
QUICK_INSTRUCTIONS = 20_000
QUICK_BENCHMARKS = ("gcc", "go")


def bench_sections(quick: bool = False
                   ) -> list[tuple[str, list[ExperimentSpec]]]:
    """The (name, specs) sections one bench mode measures: the Figure-5
    panel on :data:`QUICK_BENCHMARKS`, or Figure 5 and the Tables on
    their default benchmarks."""
    if quick:
        return [("figure5", EXHIBITS["figure5"].specs(QUICK_INSTRUCTIONS,
                                                      QUICK_BENCHMARKS))]
    return [(name, EXHIBITS[name].specs(FULL_INSTRUCTIONS,
                                        EXHIBITS[name].benchmarks))
            for name in ("figure5", "tables")]


def run_bench(quick: bool = False, jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None
              ) -> dict[str, Any]:
    """Run one bench mode cold and return the report payload.

    Each section gets its own runner (no result cache, no shared
    stream cache) so section times are independent cold measurements.
    """
    tele = current_telemetry()
    sections: dict[str, Any] = {}
    reports = []
    for name, specs in bench_sections(quick):
        runner = ExperimentRunner(jobs=jobs, cache=None, progress=progress)
        started = time.perf_counter()
        if tele:
            with tele.span("bench.section", section=name,
                           specs=len(specs)):
                runner.run(specs)
        else:
            runner.run(specs)
        sections[name] = {
            "specs": len(specs),
            "current_seconds": round(time.perf_counter() - started, 2),
        }
        reports.append(runner.report.to_dict())

    total = sum(s["current_seconds"] for s in sections.values())
    return {
        "schema": 2,
        "mode": "quick" if quick else "full",
        "jobs": jobs,
        "instructions": (QUICK_INSTRUCTIONS if quick
                         else FULL_INSTRUCTIONS),
        "sections": sections,
        "total": {"current_seconds": round(total, 2)},
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
    """All history rows, oldest first; a missing or undecodable file
    reads as empty.

    Damaged lines (a truncated append from a killed run) are skipped
    rather than poisoning the whole history.  A line that decodes to
    something other than an object is no history row: it raises a
    ``ValueError`` naming the file and line.
    """
    target = Path(path)
    try:
        text = target.read_text()
    except (OSError, UnicodeDecodeError):
        return []
    rows: list[dict[str, Any]] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if not isinstance(row, dict):
            raise ValueError(f"{target}: line {number} is not a JSON object "
                             "(a trajectory holds one object per line)")
        rows.append(row)
    return rows


def trajectory_reference(path: str | Path, mode: str
                         ) -> Optional[dict[str, Any]]:
    """The newest history row for ``mode``, as a ``check_bench``
    reference — ``bench --check history.jsonl`` compares the fresh run
    with the last recorded run of the same mode.  ``None`` when the
    file has no such row (missing, empty, or not a history at all)."""
    for row in reversed(read_trajectory(path)):
        sections = row.get("sections")
        if row.get("mode") == mode and isinstance(sections, dict) and all(
                isinstance(section, dict) and isinstance(
                    section.get("current_seconds"), (int, float))
                for section in sections.values()):
            return {"mode": mode, "sections": sections}
    return None


def check_bench(payload: dict[str, Any], reference: dict[str, Any],
                tolerance: float = 0.5) -> list[str]:
    """Compare a fresh bench payload against a reference row.

    ``reference`` is what :func:`trajectory_reference` returns: each
    section's wall time must stay within ``tolerance`` (fractional,
    e.g. ``0.5`` = +50%) of the reference's recorded
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


def format_bench(payload: dict[str, Any]) -> str:
    """Human-readable one-block summary of a bench payload."""
    lines = [f"repro bench ({payload['mode']}, jobs={payload['jobs']})"]
    for name, section in payload["sections"].items():
        lines.append(f"  {name:8s} {section['specs']:4d} specs: "
                     f"{section['current_seconds']:8.2f}s")
    lines.append(f"  {'total':8s} {'':4s}        "
                 f"{payload['total']['current_seconds']:8.2f}s")
    return "\n".join(lines)
