"""Run the oracle catalogue over one profile / one experiment spec.

:func:`check_profile` is the core entry point: it builds a
:class:`~repro.check.oracles.CheckBundle` for a
:class:`~repro.workloads.WorkloadProfile` and evaluates the requested
oracles, returning a :class:`CheckReport`.

:func:`execute_check` adapts it to the experiment-runner currency: an
``ExperimentSpec(kind="check")`` names its workload through the
``benchmark`` field (a SPECint95 stand-in or a ``fuzz-<seed>`` name)
and its validation verdict becomes the spec's flat ``RunResult``
metrics.  Because verdicts are a pure function of the spec, they are
content-addressable: a warm ``repro fuzz`` rerun serves every verdict
from the result cache without executing anything.

Cached verdicts always carry *every* oracle's violation count, so an
``--oracle`` subset filters cached entries instead of invalidating
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.check.oracles import ORACLES, CheckBundle, Violation
from repro.workloads import WorkloadProfile, profile_for
from repro.workloads.generator import WorkloadVerificationError

#: Default per-case instruction budget for differential validation —
#: deliberately smaller than the exhibit default (60k): a fuzz sweep
#: runs hundreds of cases and each case replays the stream through
#: several model legs.
DEFAULT_CHECK_INSTRUCTIONS = 8_000

#: Violation messages carried inside RunResult metrics (JSON strings).
MAX_METRIC_MESSAGES = 10

#: Pseudo-oracle name for generation/verifier-gate failures.
GENERATE_ORACLE = "generate"


@dataclass
class CheckReport:
    """One case's verdict: which oracles ran, what they found."""

    profile: WorkloadProfile
    instructions: int
    tc_entries: int
    pb_entries: int
    static_seed: bool
    oracles: tuple[str, ...]
    mechanism: str = "preconstruction"
    simulator: str = "scalar"
    violations: list[Violation] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_oracle(self) -> dict[str, int]:
        """Violation count per oracle (including zeroes for ran ones)."""
        counts = {name: 0 for name in self.oracles}
        counts.setdefault(GENERATE_ORACLE, 0)
        for violation in self.violations:
            counts[violation.oracle] = counts.get(violation.oracle, 0) + 1
        return counts

    def to_metrics(self) -> dict[str, Any]:
        """Flat, JSON-serialisable metrics for a ``kind="check"`` spec."""
        metrics: dict[str, Any] = {
            "violations": len(self.violations),
        }
        for name, count in self.by_oracle().items():
            metrics[f"oracle_{name}_violations"] = count
        metrics["violation_messages"] = [
            str(v) for v in self.violations[:MAX_METRIC_MESSAGES]]
        for key in ("instructions", "traces", "cycles",
                    "trace_misses_per_ki", "trace_hit_fraction",
                    "buffer_hits"):
            if key in self.summary:
                metrics[key] = self.summary[key]
        return metrics


def resolve_oracles(oracles: Optional[Sequence[str]]) -> tuple[str, ...]:
    """Validate and order an oracle selection (``None`` = all)."""
    if oracles is None:
        return tuple(ORACLES)
    unknown = [name for name in oracles if name not in ORACLES]
    if unknown:
        raise ValueError(f"unknown oracle(s) {unknown}; "
                         f"choose from {tuple(ORACLES)}")
    # Registry order, deduplicated.
    selected = set(oracles)
    return tuple(name for name in ORACLES if name in selected)


def check_profile(profile: WorkloadProfile,
                  instructions: int = DEFAULT_CHECK_INSTRUCTIONS, *,
                  tc_entries: int = 128, pb_entries: int = 64,
                  static_seed: bool = False,
                  mechanism: str = "preconstruction",
                  simulator: str = "scalar",
                  oracles: Optional[Sequence[str]] = None) -> CheckReport:
    """Run ``profile`` through the full stack and evaluate ``oracles``.

    ``mechanism`` selects the frontend fill/prefetch mechanism the
    timing legs run under (:mod:`repro.frontends`), so every mechanism
    in the zoo inherits the cross-model invariants.  ``simulator`` is
    recorded on the report only: every point runs on the one dispatch
    loop.

    A workload that fails the generator's verifier gate is itself a
    finding (pseudo-oracle ``"generate"``) — the remaining oracles are
    skipped since there is no image to run.
    """
    selected = resolve_oracles(oracles)
    report = CheckReport(profile=profile, instructions=instructions,
                         tc_entries=tc_entries, pb_entries=pb_entries,
                         static_seed=static_seed, oracles=selected,
                         mechanism=mechanism, simulator=simulator)
    bundle = CheckBundle(profile, instructions, tc_entries=tc_entries,
                         pb_entries=pb_entries, static_seed=static_seed,
                         mechanism=mechanism)
    try:
        bundle.workload
    except WorkloadVerificationError as error:
        report.violations.append(Violation(
            GENERATE_ORACLE,
            f"workload failed the verifier gate: {error}",
            {"findings": len(error.findings)}))
        return report
    for name in selected:
        report.violations.extend(ORACLES[name](bundle))
    report.summary = dict(bundle.plain_run.stats.summary())
    return report


def execute_check(spec) -> dict[str, Any]:
    """Metrics payload for an ``ExperimentSpec(kind="check")``.

    Runs every registered oracle (the cached verdict must not depend
    on a caller's oracle selection) over the spec's benchmark at the
    spec's sizing.
    """
    from repro.telemetry import span

    with span("check.case", benchmark=spec.benchmark,
              instructions=spec.instructions):
        profile = profile_for(spec.benchmark, spec.workload_seed)
        report = check_profile(profile, spec.instructions,
                               tc_entries=spec.tc_entries,
                               pb_entries=spec.pb_entries,
                               static_seed=spec.static_seed,
                               mechanism=spec.mechanism,
                               simulator=getattr(spec, "simulator",
                                                 "scalar"))
        return report.to_metrics()
