"""Shrink a failing check case to a minimal reproducer.

A fuzz finding is an adversarial :class:`~repro.workloads.WorkloadProfile`
plus an instruction budget under which at least one oracle reports
violations.  Raw fuzz profiles differ from the default profile in a
dozen knobs, most of them irrelevant to the failure; this module
shrinks the case along two axes:

1. **Budget bisection** — halve the instruction budget while the
   failure persists (cheap first: every later probe reruns the stack
   at the reduced budget).
2. **Knob resetting** — greedily reset each differing knob to the
   default :class:`WorkloadProfile` value, keeping the reset whenever
   the restricted oracle set still fails; iterate passes to a fixpoint
   (resetting one knob can unlock another).

Probes re-check only the *failing* oracles, and the lazy
:class:`~repro.check.oracles.CheckBundle` legs mean each probe builds
just the execution legs those oracles read.

The result is a :class:`MinimizedCase` that renders a self-contained
repro script: runnable with nothing but the repo on ``PYTHONPATH``,
pinning the seed and only the knobs that matter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.check.harness import CheckReport, check_profile
from repro.workloads import WorkloadProfile

#: Budget bisection never goes below this — the frontend needs a few
#: hundred committed instructions before the counters mean anything.
MIN_INSTRUCTIONS = 500

#: Knob-reset passes give up after this many full sweeps (each pass
#: must strictly shrink the diff to continue, so this is a backstop,
#: not a tuning knob).
MAX_PASSES = 8


def knob_diff(profile: WorkloadProfile) -> dict[str, Any]:
    """Knobs where ``profile`` differs from the default profile.

    ``name`` and ``seed`` are identity, not knobs — they never appear
    in the diff.
    """
    baseline = WorkloadProfile(name=profile.name, seed=profile.seed)
    diff: dict[str, Any] = {}
    for spec_field in fields(WorkloadProfile):
        if spec_field.name in ("name", "seed"):
            continue
        value = getattr(profile, spec_field.name)
        if value != getattr(baseline, spec_field.name):
            diff[spec_field.name] = value
    return diff


@dataclass(frozen=True)
class MinimizedCase:
    """A shrunk failing case plus the evidence trail."""

    profile: WorkloadProfile
    instructions: int
    tc_entries: int
    pb_entries: int
    static_seed: bool
    mechanism: str
    failing_oracles: tuple[str, ...]
    report: CheckReport
    probes: int
    original_instructions: int
    original_knobs: int

    @property
    def knobs(self) -> dict[str, Any]:
        """The surviving (load-bearing) knob diff from the default."""
        return knob_diff(self.profile)

    def describe(self) -> str:
        knobs = self.knobs
        rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(knobs.items()))
        return (f"seed={self.profile.seed} instructions={self.instructions} "
                f"knobs[{len(knobs)}]: {rendered or '(default profile)'}")

    def script(self) -> str:
        """A self-contained repro script for this case."""
        knobs = self.knobs
        knob_lines = "".join(
            f"    {name}={knobs[name]!r},\n" for name in sorted(knobs))
        oracles = ", ".join(repr(name) for name in self.failing_oracles)
        messages = "".join(
            f"#   {violation}\n" for violation in self.report.violations[:5])
        return (
            "#!/usr/bin/env python\n"
            '"""Minimized repro for a repro.check fuzz finding.\n'
            "\n"
            "Run with the repository on PYTHONPATH:\n"
            "    PYTHONPATH=src python repro_case.py\n"
            '"""\n'
            "# Violations at minimization time:\n"
            f"{messages}"
            "from repro.check import check_profile\n"
            "from repro.workloads import WorkloadProfile\n"
            "\n"
            "profile = WorkloadProfile(\n"
            f"    name={self.profile.name!r},\n"
            f"    seed={self.profile.seed!r},\n"
            f"{knob_lines}"
            ")\n"
            "report = check_profile(\n"
            f"    profile, {self.instructions},\n"
            f"    tc_entries={self.tc_entries}, "
            f"pb_entries={self.pb_entries}, "
            f"static_seed={self.static_seed},\n"
            f"    mechanism={self.mechanism!r},\n"
            f"    oracles=[{oracles}],\n"
            ")\n"
            "for violation in report.violations:\n"
            "    print(violation)\n"
            'assert not report.ok, "case no longer reproduces"\n'
            'print("reproduced:", len(report.violations), "violation(s)")\n'
        )

    def write_script(self, path: str | Path) -> Path:
        target = Path(path)
        target.write_text(self.script())
        return target


def _failing(report: CheckReport) -> tuple[str, ...]:
    return tuple(name for name, count in report.by_oracle().items() if count)


def minimize_case(profile: WorkloadProfile, instructions: int, *,
                  tc_entries: int = 128, pb_entries: int = 64,
                  static_seed: bool = False,
                  mechanism: str = "preconstruction",
                  oracles: Optional[Sequence[str]] = None,
                  ) -> Optional[MinimizedCase]:
    """Shrink a failing case; ``None`` if it doesn't fail to begin with.

    ``oracles`` restricts the initial check (defaults to all); probes
    during shrinking always use exactly the oracles that failed
    initially, so the minimizer converges on *that* failure rather than
    wandering to a different one.
    """
    probes = 0

    def probe(candidate: WorkloadProfile, budget: int,
              selected: Sequence[str]) -> CheckReport:
        nonlocal probes
        probes += 1
        return check_profile(candidate, budget, tc_entries=tc_entries,
                             pb_entries=pb_entries, static_seed=static_seed,
                             mechanism=mechanism, oracles=selected)

    initial = probe(profile, instructions, oracles)
    if initial.ok:
        return None
    failing = _failing(initial)
    # The "generate" pseudo-oracle is not in the registry; probe with
    # the registered failing subset (generation failures surface
    # regardless of the oracle selection).
    probe_oracles = tuple(name for name in failing if name != "generate")

    best_profile, best_budget, best_report = profile, instructions, initial
    original_knobs = len(knob_diff(profile))

    # Phase 1: halve the budget while the failure persists.
    while best_budget // 2 >= MIN_INSTRUCTIONS:
        candidate = probe(best_profile, best_budget // 2, probe_oracles)
        if candidate.ok:
            break
        best_budget //= 2
        best_report = candidate

    # Phase 2: greedily reset knobs toward the default profile.
    for _ in range(MAX_PASSES):
        progressed = False
        for knob in sorted(knob_diff(best_profile)):
            baseline_value = getattr(
                WorkloadProfile(name=profile.name, seed=profile.seed), knob)
            try:
                candidate_profile = replace(
                    best_profile, **{knob: baseline_value})
            except ValueError:
                continue  # reset would violate profile invariants
            candidate = probe(candidate_profile, best_budget, probe_oracles)
            if not candidate.ok:
                best_profile = candidate_profile
                best_report = candidate
                progressed = True
        if not progressed:
            break

    return MinimizedCase(
        profile=best_profile, instructions=best_budget,
        tc_entries=tc_entries, pb_entries=pb_entries,
        static_seed=static_seed, mechanism=mechanism,
        failing_oracles=failing, report=best_report, probes=probes,
        original_instructions=instructions, original_knobs=original_knobs)
