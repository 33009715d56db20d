"""The workload fuzzer: seeded sweeps of adversarial check cases.

One fuzz *case* is an ``ExperimentSpec(kind="check")`` whose benchmark
is a ``fuzz-<seed>`` name: the profile is a pure function of the seed
(:func:`repro.workloads.fuzz.fuzz_profile`) and the frontend sizing
(trace-cache / mechanism-budget entries, static seeding, frontend
mechanism) is sampled from the same seed here, so the whole case — and
therefore its verdict — is content-addressable.  A warm rerun of
``python -m repro fuzz`` over the same seed range serves every verdict
from the :class:`~repro.runner.cache.ResultCache` without executing
anything.

Failing cases are shrunk by :mod:`repro.check.minimize` to a minimal
reproducer and (optionally) written out as self-contained repro
scripts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.check.harness import DEFAULT_CHECK_INSTRUCTIONS, resolve_oracles
from repro.check.minimize import MinimizedCase, minimize_case
from repro.frontends import mechanism_names
from repro.runner import ExperimentRunner, ExperimentSpec, ResultCache, RunResult
from repro.workloads import FUZZ_PREFIX, fuzz_profile

#: Decorrelates the frontend-sizing stream from the profile-shape
#: stream (:data:`repro.workloads.fuzz._SHAPE_SALT`).
_CONFIG_SALT = 0xC0FF_EE11

#: Trace-cache sizes a fuzz case may run under.
TC_CHOICES = (32, 64, 128, 256)

#: Preconstruction-buffer sizes a fuzz case may run under (0 = off).
PB_CHOICES = (0, 16, 64, 128)

#: Probability a case enables static region seeding.
STATIC_SEED_PROB = 0.25


def fuzz_case_spec(case_seed: int,
                   instructions: int = DEFAULT_CHECK_INSTRUCTIONS,
                   simulator: Optional[str] = None) -> ExperimentSpec:
    """The deterministic check spec for fuzz case ``case_seed``.

    The frontend mechanism and the (inert) ``simulator`` value are drawn
    from the seed like every other sizing knob, so a fuzz sweep
    exercises the whole competing-frontend zoo through the same oracle
    catalogue.  Each draw comes *after* the pre-existing ones so the
    knobs sampled for a given seed are unchanged across schema bumps.
    ``simulator`` forces one value instead of drawing (``repro fuzz
    --simulator``).
    """
    from repro.runner.spec import SIMULATOR_KINDS

    rng = random.Random((case_seed << 1) ^ _CONFIG_SALT)
    tc_entries = rng.choice(TC_CHOICES)
    pb_entries = rng.choice(PB_CHOICES)
    static_seed = rng.random() < STATIC_SEED_PROB
    mechanism = rng.choice(mechanism_names())
    drawn_simulator = rng.choice(SIMULATOR_KINDS)
    return ExperimentSpec(
        benchmark=f"{FUZZ_PREFIX}{case_seed}",
        tc_entries=tc_entries,
        pb_entries=pb_entries,
        static_seed=static_seed,
        mechanism=mechanism,
        kind="check",
        instructions=instructions,
        simulator=simulator if simulator is not None else drawn_simulator)


@dataclass
class FuzzFailure:
    """One failing case: the spec, its violations, the shrunk repro."""

    case_seed: int
    spec: ExperimentSpec
    violations: int
    messages: list[str]
    minimized: Optional[MinimizedCase] = None
    script_path: Optional[str] = None

    def format(self) -> str:
        lines = [f"FAIL {self.spec.label}: "
                 f"{self.violations} violation(s)"]
        lines.extend(f"  {message}" for message in self.messages)
        if self.minimized is not None:
            lines.append(f"  minimized: {self.minimized.describe()}")
        if self.script_path:
            lines.append(f"  repro script: {self.script_path}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep."""

    seeds: int
    seed_base: int
    instructions: int
    oracles: tuple[str, ...]
    cases: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_violations(self) -> int:
        return sum(failure.violations for failure in self.failures)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seeds": self.seeds, "seed_base": self.seed_base,
            "instructions": self.instructions,
            "oracles": list(self.oracles),
            "cases": self.cases, "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
            "failures": [{
                "case_seed": failure.case_seed,
                "spec": failure.spec.to_dict(),
                "violations": failure.violations,
                "messages": failure.messages,
                "minimized": (None if failure.minimized is None else {
                    "seed": failure.minimized.profile.seed,
                    "instructions": failure.minimized.instructions,
                    "knobs": failure.minimized.knobs,
                    "failing_oracles": list(failure.minimized.failing_oracles),
                    "probes": failure.minimized.probes,
                }),
                "script_path": failure.script_path,
            } for failure in self.failures],
        }

    def format(self) -> str:
        head = (f"fuzz: {self.cases} cases "
                f"(seeds {self.seed_base}..{self.seed_base + self.seeds - 1}, "
                f"budget {self.instructions}), "
                f"{self.cache_hits} served from cache, "
                f"{self.wall_seconds:.2f}s")
        if self.ok:
            return f"{head}\nall oracles held: 0 violations"
        body = "\n".join(failure.format() for failure in self.failures)
        return (f"{head}\n{len(self.failures)} failing case(s), "
                f"{self.total_violations} violation(s):\n{body}")


def _selected_violations(result: RunResult,
                         oracles: Sequence[str]) -> tuple[int, list[str]]:
    """Violation count/messages restricted to ``oracles``.

    Cached verdicts always carry every oracle's count, so the subset is
    computed here instead of invalidating the cache entry.  Generation
    failures (pseudo-oracle ``generate``) always count.
    """
    watched = set(oracles) | {"generate"}
    count = sum(int(result.metrics.get(f"oracle_{name}_violations", 0))
                for name in watched)
    messages = [message for message
                in result.metrics.get("violation_messages", [])
                if message.partition("]")[0].lstrip("[") in watched]
    return count, messages


def run_fuzz(seeds: int,
             instructions: int = DEFAULT_CHECK_INSTRUCTIONS, *,
             seed_base: int = 0,
             oracles: Optional[Sequence[str]] = None,
             jobs: int = 1,
             cache: Optional[ResultCache] = None,
             progress=None,
             minimize: bool = True,
             failures_dir: Optional[str | Path] = None,
             simulator: Optional[str] = None) -> FuzzReport:
    """Fuzz ``seeds`` cases starting at ``seed_base``.

    Verdicts flow through the parallel :class:`ExperimentRunner` and,
    when ``cache`` is given, the content-addressed result cache.
    Failing cases are minimized (unless ``minimize=False``) against the
    requested oracle subset; with ``failures_dir`` each minimized case
    also writes a self-contained ``repro_fuzz_<seed>.py`` script.
    ``simulator`` forces every case's (inert) ``simulator`` value; by
    default each case draws one from its seed.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    selected = resolve_oracles(oracles)
    report = FuzzReport(seeds=seeds, seed_base=seed_base,
                        instructions=instructions, oracles=selected)

    specs = [fuzz_case_spec(seed_base + i, instructions, simulator)
             for i in range(seeds)]
    runner = ExperimentRunner(jobs=jobs, cache=cache, progress=progress)
    results = runner.run(specs)
    report.cases = len(results)
    report.cache_hits = runner.report.cache_hits
    report.wall_seconds = runner.report.wall_seconds

    out_dir: Optional[Path] = None
    if failures_dir is not None:
        out_dir = Path(failures_dir)

    for index, (spec, result) in enumerate(zip(specs, results)):
        count, messages = _selected_violations(result, selected)
        if not count:
            continue
        case_seed = seed_base + index
        failure = FuzzFailure(case_seed=case_seed, spec=spec,
                              violations=count, messages=messages)
        if minimize:
            if progress:
                progress(f"minimizing {spec.label} ...")
            failure.minimized = minimize_case(
                fuzz_profile(case_seed), spec.instructions,
                tc_entries=spec.tc_entries, pb_entries=spec.pb_entries,
                static_seed=spec.static_seed, mechanism=spec.mechanism,
                simulator=spec.simulator, oracles=selected)
            if failure.minimized is not None and out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                script = out_dir / f"repro_fuzz_{case_seed}.py"
                failure.minimized.write_script(script)
                failure.script_path = str(script)
        report.failures.append(failure)
    return report
