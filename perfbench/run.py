#!/usr/bin/env python3
"""Repository benchmark: cold, single-process runs of three workloads.

    python3 perfbench/run.py --workload figure5 --seed 1 --seconds 25 --trace 0

Each run builds its workload's inputs from ``--seed`` in three timed
set-ups, then runs the workload's points closed-loop, one client,
``jobs=1``: a point starts when the previous one has returned.  Points
run in whole passes over the workload's grid, as many as fill
``--seconds`` on a host of reference speed (at least one).  Every
point's simulated statistics are checked afterwards; the last stdout
line is one JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics of a traced run (``--trace 1``, see
``layers.py``).  ``README.md`` explains the workloads and metrics.

    python3 perfbench/run.py --record-references

rewrites ``references.json``: the digest of every point's simulated
statistics at the default and the held-out seed of each workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Span dumps and temporary result caches (inside the checkout).
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

#: Per-point instruction budget of the SPEC stand-in workloads: the
#: ``repro bench --quick`` budget, a third of the exhibit default, so a
#: run can cover three programs per benchmark.  One program per
#: benchmark left the seed-to-seed spread of ``figure5`` at 23% of its
#: median, because preconstruction cost depends on the program drawn.
INSTRUCTIONS = 20_000
#: Set-ups per run.  A SPEC workload builds one program set (one
#: workload seed for each of its benchmarks) per set-up.
SETUPS = 3
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
#: Fuzz case seeds reserved per benchmark seed (``seed_base`` stride).
FUZZ_STRIDE = 1000
#: Fuzz cases per pass.
FUZZ_BLOCK = 4
#: Fuzz cases per recorded reference seed.
REFERENCE_FUZZ_CASES = 48

#: Host-speed calibration item (see :func:`calibration_sample`).
CALIBRATION_ITEMS = 50_000
CALIBRATION_REFERENCE_S = 0.010

WORKLOADS = ("figure5", "processor", "fuzz")
#: Reference-host seconds of one pass, which turn ``--seconds`` into a
#: fixed number of passes (see :func:`passes_for`).
PASS_SECONDS = {"figure5": 22.0, "processor": 13.0, "fuzz": 2.5}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("sim_kips", "kips"),
              ("peak_rss_mb", "MB"))


def digest(metrics: dict[str, Any]) -> str:
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the public API."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.api"], env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class GridWorkload:
    """A fixed grid of SPEC stand-in points over three program sets,
    sharing one stream cache."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.analysis.figures import figure6_specs, figure8_specs
        from repro.analysis.sweeps import figure5_specs

        self.name = name
        if name == "figure5":
            grid = [spec for benchmark in ("gcc", "go", "vortex")
                    for spec in figure5_specs(benchmark, INSTRUCTIONS)]
        else:
            pair = ("go", "perl")
            grid = list(dict.fromkeys(
                figure6_specs(INSTRUCTIONS, benchmarks=pair)
                + figure8_specs(INSTRUCTIONS, benchmarks=pair)))
        self.sets = [[spec.replace(workload_seed=seed * SETUPS + part)
                      for spec in grid] for part in range(SETUPS)]
        self.specs = [spec for part in self.sets for spec in part]
        self.pass_seconds = PASS_SECONDS[name]

    def new_state(self) -> Any:
        from repro.api import ExperimentRunner, StreamCache

        return ExperimentRunner(jobs=1,
                                stream_cache=StreamCache(INSTRUCTIONS))

    def setup(self, runner: Any, part: int) -> None:
        """Images, streams and partitions of program set ``part``."""
        cache = runner.stream_cache
        for spec in self.sets[part]:
            cache.stream(spec.benchmark, spec.workload_seed)
            if spec.kind == "frontend":
                cache.traces(spec.benchmark, spec.instructions,
                             spec.frontend_config().selection,
                             spec.workload_seed)

    def reset(self, runner: Any) -> Any:
        return runner

    def discard(self, runner: Any) -> None:
        pass

    def points(self, index: int) -> list:
        return self.specs

    def run_point(self, runner: Any, spec: Any) -> Any:
        return runner.run([spec])[0]

    def instructions(self, spec: Any) -> int:
        return spec.instructions

    def spec_of(self, spec: Any) -> Any:
        return spec

    def verdict(self, runner: Any, spec: Any, result: Any
                ) -> tuple[str, str, Optional[str]]:
        """(reference key, digest, problem or None) for one point."""
        problem = None
        if result.metrics.get("instructions") != spec.instructions:
            problem = (f"simulated {result.metrics.get('instructions')} "
                       f"instructions, budget {spec.instructions}")
        return (f"{spec.label} seed={spec.workload_seed}",
                digest(result.metrics), problem)


class FuzzWorkload:
    """Consecutive fuzz cases through ``run_fuzz`` and a fresh result
    cache; every case generates its own image."""

    name = "fuzz"
    pass_seconds = PASS_SECONDS["fuzz"]

    def __init__(self, seed: int) -> None:
        self.base = seed * FUZZ_STRIDE

    def new_state(self) -> Any:
        from repro.api import ResultCache

        OUT_DIR.mkdir(exist_ok=True)
        return ResultCache(tempfile.mkdtemp(prefix="fuzz-cache-",
                                            dir=OUT_DIR))

    def setup(self, cache: Any, part: int) -> None:
        """Nothing is shared between cases: set-up is the cold import."""

    def reset(self, cache: Any) -> Any:
        self.discard(cache)
        return self.new_state()

    def discard(self, cache: Any) -> None:
        shutil.rmtree(cache.root, ignore_errors=True)

    def points(self, index: int) -> list:
        first = self.base + index * FUZZ_BLOCK
        return list(range(first, first + FUZZ_BLOCK))

    def run_point(self, cache: Any, case: int) -> Any:
        from repro.api import run_fuzz

        return run_fuzz(1, seed_base=case, cache=cache, minimize=False)

    def instructions(self, case: int) -> int:
        from repro.check.harness import DEFAULT_CHECK_INSTRUCTIONS

        return DEFAULT_CHECK_INSTRUCTIONS

    def spec_of(self, case: int) -> Any:
        from repro.check import fuzz_case_spec

        return fuzz_case_spec(case)

    def verdict(self, cache: Any, case: int, report: Any
                ) -> tuple[str, str, Optional[str]]:
        result = cache.get(self.spec_of(case))
        problem = None
        if not report.ok:
            problem = "; ".join(failure.format() for failure in report.failures)
        elif result is None:
            problem = "verdict missing from the result cache"
        return (f"fuzz-{case}", digest(result.metrics) if result else "",
                problem)


def make_workload(name: str, seed: int) -> Any:
    if name == "fuzz":
        return FuzzWorkload(seed)
    return GridWorkload(name, seed)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def calibration_sample() -> float:
    """Seconds for a fixed pure-Python work item.

    Shared hosts drift by tens of percent within a minute.  The item is
    timed between points, and reported times are scaled to a host on
    which it takes :data:`CALIBRATION_REFERENCE_S`, so the drift cancels
    while any change to the simulator's own speed still shows.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_ITEMS):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


def host_scale(samples: list[float]) -> float:
    return CALIBRATION_REFERENCE_S * len(samples) / sum(samples)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (Linux); harmless elsewhere."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def pin_to_one_cpu() -> None:
    """Keep the benchmark (and the interpreters it starts) on one CPU.

    Migrating between the cores of a shared virtual machine made a
    fixed 10 ms work item vary by over 60% (interquartile range over
    median); pinned, under 25%.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One closed-loop pass over a workload's points."""

    wall: float = 0.0           # seconds inside points
    records: list = field(default_factory=list)
    samples: list = field(default_factory=list)   # calibration seconds
    peaks_mb: list = field(default_factory=list)  # peak RSS per point

    @property
    def seconds(self) -> float:
        """Host-scaled wall time (raw when uncalibrated)."""
        return self.wall * host_scale(self.samples) if self.samples \
            else self.wall


def run_pass(workload: Any, state: Any, index: int,
             calibrate: bool = True) -> Pass:
    """One pass; a point that raises is recorded, not fatal."""
    outcome = Pass()
    if calibrate:
        outcome.samples.append(calibration_sample())
    for point in workload.points(index):
        reset_peak_rss()
        started = time.perf_counter()
        try:
            result, error = workload.run_point(state, point), None
        except Exception:  # noqa: BLE001 - a failed point is a result
            result, error = None, traceback.format_exc()
        outcome.wall += time.perf_counter() - started
        outcome.peaks_mb.append(peak_rss_mb())
        outcome.records.append((point, result, error))
        if calibrate:
            outcome.samples.append(calibration_sample())
    return outcome


def run_window(workload: Any, state: Any, passes: int,
               calibrate: bool = True) -> list[Pass]:
    return [run_pass(workload, state, index, calibrate)
            for index in range(passes)]


def passes_for(workload: Any, seconds: float) -> int:
    """Passes that fill ``seconds`` on a host of reference speed.

    The count depends only on ``seconds``, never on how fast this host
    happens to be, so one seed always runs the same points: with a
    deadline instead, a slow minute ran fewer fuzz cases, and the case
    mix, not the code, moved the result.
    """
    return max(1, int(seconds // workload.pass_seconds))


def check(workload: Any, state: Any, passes: list,
          reference: Optional[dict[str, str]]) -> tuple[int, int]:
    """(attempted, failed) over every point run.

    A point fails if it raised, if its own invariants or oracles fail,
    if its digest differs from the recorded reference for this seed, or
    if a repeat of the same point in this run digests differently.
    """
    attempted = failed = 0
    seen: dict[str, str] = {}
    for done in passes:
        for point, outcome, error in done.records:
            attempted += 1
            if error is not None:
                failed += 1
                print(f"point {point} raised:\n{error}", file=sys.stderr)
                continue
            key, value, problem = workload.verdict(state, point, outcome)
            expected = (reference or {}).get(key, seen.get(key))
            if problem is None and expected is not None and value != expected:
                problem = f"statistics digest {value}, expected {expected}"
            seen.setdefault(key, value)
            if problem is not None:
                failed += 1
                print(f"point {key} failed: {problem}", file=sys.stderr)
    return attempted, failed


def properties(workload: Any, passes: list) -> dict[str, dict[str, float]]:
    """Share of points with each property a later optimisation may
    depend on."""
    specs = [workload.spec_of(point)
             for done in passes for point, _, _ in done.records]
    first = specs[:len(passes[0].records)]
    streams = Counter((spec.benchmark, spec.workload_seed) for spec in first)
    per_stream = Counter(str(streams[(spec.benchmark, spec.workload_seed)])
                         for spec in first)
    tallies = {
        "mechanism": Counter(spec.mechanism if spec.pb_entries else "none"
                             for spec in specs),
        "kernel": Counter(spec.simulator for spec in specs),
        "kind": Counter(spec.kind for spec in specs),
        "points_per_stream": per_stream,   # within one pass
    }
    return {name: {key: count / sum(tally.values())
                   for key, count in sorted(tally.items())}
            for name, tally in tallies.items()}


def load_references(workload: str, seed: int) -> Optional[dict[str, str]]:
    try:
        payload = json.loads(REFERENCES.read_text())
    except OSError:
        return None
    if payload.get("instructions") != INSTRUCTIONS:
        return None
    return payload.get("workloads", {}).get(workload, {}).get(str(seed))


def end_to_end(workload: Any, seed: int, seconds: float,
               references: Optional[dict[str, str]]) -> dict[str, Any]:
    setups: list[float] = []
    samples: list[float] = []
    state = workload.new_state()
    for part in range(SETUPS):
        samples.append(calibration_sample())
        started = time.perf_counter()
        workload.setup(state, part)
        setups.append(time.perf_counter() - started + import_seconds())
        samples.append(calibration_sample())
    gc.collect()
    try:
        passes = run_window(workload, state, passes_for(workload, seconds))
        attempted, failed = check(workload, state, passes, references)
        shares = properties(workload, passes)
    finally:
        workload.discard(state)
    instructions = sum(workload.instructions(point)
                       for done in passes for point, _, _ in done.records)
    run_seconds = sum(done.seconds for done in passes)
    # Set-ups are short, so they are scaled by the whole run's samples.
    scale = host_scale(samples + [x for done in passes for x in done.samples])
    values = {
        "setup_s": statistics.median(setups) * scale,
        "run_s": run_seconds / len(passes),
        "sim_kips": instructions / run_seconds / 1000.0,
        "peak_rss_mb": statistics.median(
            peak for done in passes for peak in done.peaks_mb),
    }
    return {"attempted": attempted, "failed": failed, "properties": shares,
            "passes": len(passes), "host_scale": scale,
            "metrics": {name: (values[name], unit)
                        for name, unit in END_TO_END}}


def traced(workload: Any, seed: int, seconds: float,
           references: Optional[dict[str, str]]) -> dict[str, Any]:
    """Set-up and run under the layer tracer, after an untraced run of
    the same passes (the tracing overhead).  Both runs are calibrated,
    or host drift between them would swamp the overhead."""
    from layers import METRICS, LayerTracer

    tracer = LayerTracer()
    state = workload.new_state()
    with tracer.installed(), tracer.phase("setup"):
        for part in range(SETUPS):
            workload.setup(state, part)
    gc.collect()
    try:
        untraced = run_window(workload, state,
                              passes_for(workload, seconds / 2))
        attempted, failed = check(workload, state, untraced, references)
        state = workload.reset(state)
        gc.collect()
        with tracer.installed(), tracer.phase("run") as run:
            passes = run_window(workload, state, len(untraced))
        more_attempted, more_failed = check(workload, state, passes,
                                            references)
        shares = properties(workload, passes)
    finally:
        workload.discard(state)
    values = tracer.metrics(
        run["layer_seconds"], sum(done.wall for done in passes),
        sum(done.seconds for done in passes),
        sum(done.seconds for done in untraced))
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    dump.write_text(json.dumps({"spans": tracer.spans.spans(),
                                "metrics": values}, indent=1) + "\n")
    print(f"spans written to {dump}", file=sys.stderr)
    return {"attempted": attempted + more_attempted,
            "failed": failed + more_failed, "properties": shares,
            "passes": len(passes),
            "metrics": {name: (values[name], unit) for name, unit in METRICS}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 references: Optional[dict[str, str]] = None
                 ) -> dict[str, Any]:
    workload = make_workload(name, seed)
    if references is None:
        references = load_references(name, seed)
    measure = traced if trace else end_to_end
    return measure(workload, seed, seconds, references)


def report(name: str, seed: int, outcome: dict[str, Any]) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [f"perfbench {name} seed={seed} passes={outcome['passes']}"]
    for metric, (value, unit) in outcome["metrics"].items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        lines.append(f"  {metric:<34} {shown} {unit}")
    if "host_scale" in outcome:
        lines.append(f"  host speed scale {outcome['host_scale']:.4f} "
                     "(reported seconds = wall seconds x scale)")
    attempted, failed = outcome["attempted"], outcome["failed"]
    lines.append(f"  points attempted {attempted}, failed {failed}, "
                 f"error_rate {failed / attempted:.6f}")
    for prop, shares in outcome["properties"].items():
        text = ", ".join(f"{key} {share:.0%}" for key, share in shares.items())
        lines.append(f"  share of points by {prop}: {text}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {metric: {"value": value, "unit": unit}
                          for metric, (value, unit)
                          in outcome["metrics"].items()}}
    lines.append(json.dumps(result))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def record_references() -> None:
    payload: dict[str, Any] = {"instructions": INSTRUCTIONS, "workloads": {}}
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workload = make_workload(name, seed)
            state = workload.new_state()
            for part in range(SETUPS):
                workload.setup(state, part)
            count = (REFERENCE_FUZZ_CASES // FUZZ_BLOCK
                     if name == "fuzz" else 1)
            passes = run_window(workload, state, count, calibrate=False)
            digests = {}
            for done in passes:
                for point, outcome, error in done.records:
                    if error is not None:
                        raise SystemExit(f"{name} seed {seed}: {error}")
                    key, value, problem = workload.verdict(state, point,
                                                           outcome)
                    if problem is not None:
                        raise SystemExit(f"{name} {key}: {problem}")
                    digests[key] = value
            workload.discard(state)
            payload["workloads"].setdefault(name, {})[str(seed)] = digests
            print(f"recorded {name} seed {seed}: {len(digests)} points",
                  file=sys.stderr)
    REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")

    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    try:
        import repro.api  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.record_references:
        record_references()
        return 0
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(report(args.workload, args.seed, outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
