"""Command-line interface: regenerate the paper's exhibits.

Usage::

    python -m repro list
    python -m repro analyze gcc [--json]
    python -m repro predict gcc [--json]
    python -m repro point gcc --tc 256 --pb 256 [--static-seed]
    python -m repro stats gcc [--tc 256 --pb 256] [--json]
    python -m repro trace gcc --out trace.json [--events PATH] [--metrics PATH]
    python -m repro figure5 --benchmarks gcc go --jobs 4 [--stats-json PATH]
    python -m repro tables [--jobs N] [--benchmarks ...]
    python -m repro figure6 [--jobs N] [--benchmarks ...]
    python -m repro figure8 [--jobs N] [--benchmarks ...]
    python -m repro dynamic --benchmarks gcc go
    python -m repro compare --benchmarks gcc --mechanisms preconstruction,mana
    python -m repro all --jobs 4 [--timing-report timing.json]
    python -m repro bench [--quick] [--check BENCH_trajectory.jsonl]
    python -m repro fuzz --seeds 100 [--budget 8000] [--oracle NAME ...]
    python -m repro diff run_a.json run_b.json [--json]
    python -m repro report --trajectory BENCH_trajectory.jsonl -o out.html
    python -m repro cache [--clear]
    python -m repro all --telemetry-json telemetry.json
    python -m repro telemetry [DUMP] [--openmetrics | --json]
    python -m repro profile [--pstats out.pstats] bench --quick

Observability: ``repro stats`` and ``repro trace`` run one frontend
point with the :mod:`repro.obs` event bus attached — ``stats`` prints
the counter summary plus interval histograms, ``trace`` exports a
Chrome/Perfetto ``trace.json`` of the engine timeline (plus optional
raw ``events.jsonl`` / ``metrics.jsonl``).  ``-v``/``--log-level``
configure stdlib logging for every command.

Host-domain telemetry (:mod:`repro.telemetry`) is the wall-clock
mirror: ``--telemetry-json`` on ``all``/``bench``/``fuzz``/``compare``
traces the scheduler, result cache and workload generation (spans +
metrics registry, propagated across worker processes), ``repro
telemetry`` prints the last dump, and ``repro profile <cmd>`` wraps
any command in ``cProfile``.  Telemetry is off — and free — by
default, and never perturbs results: ``repro all`` output is
byte-identical either way.

The exhibit commands are the rows of :data:`repro.analysis.EXHIBITS`,
which gives each one's benchmarks, specs and layout.  Their points run
through :mod:`repro.runner`: deduplicated, served from the
content-addressed result cache when inputs are unchanged (disable with
``--no-cache``, relocate with ``--cache-dir``), and fanned out across
``--jobs`` worker processes grouped by benchmark.  Output is
bit-identical regardless of ``--jobs`` — results merge in spec order.
``repro all`` regenerates every exhibit through a single scheduler
pass, printing what the single commands print, and can write its
timing report for CI artifacts.

The instruction budget precedence is ``--instructions`` >
``REPRO_INSTRUCTIONS`` env > built-in default (60 000).

Bad input — an out-of-range flag, an unreadable file, a malformed
document — raises ``ValueError`` or ``OSError`` wherever it is found;
:func:`main` turns either into one ``<command>: <message>`` line on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import EXHIBITS, Exhibit
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    resolve_instructions,
    run_observed,
    run_point,
    stderr_progress,
)
from repro.workloads import SPEC95_NAMES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace Preconstruction (ISCA 2000) reproduction")
    parser.add_argument("--instructions", type=int, default=None,
                        help="instruction budget per simulation run "
                             "(default: REPRO_INSTRUCTIONS env, else 60000)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "REPRO_CACHE_DIR env, else ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (-v info, -vv debug)")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error",
                                 "critical"),
                        help="explicit log level (overrides -v)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the SPECint95 stand-in benchmarks")

    analyze = sub.add_parser(
        "analyze", help="static analysis + lint report for one benchmark")
    analyze.add_argument("benchmark", choices=SPEC95_NAMES)
    analyze.add_argument("--json", action="store_true",
                         help="emit the full report as deterministic JSON")

    predict = sub.add_parser(
        "predict", help="static trace-coverage prediction for one "
                        "benchmark (predicted start points, working set "
                        "and per-region footprints)")
    predict.add_argument("benchmark", choices=SPEC95_NAMES)
    predict.add_argument("--json", action="store_true",
                         help="emit the prediction as deterministic JSON")

    point = sub.add_parser("point", help="one frontend configuration point")
    point.add_argument("benchmark", choices=SPEC95_NAMES)
    point.add_argument("--tc", type=int, default=256,
                       help="trace cache entries")
    point.add_argument("--pb", type=int, default=0,
                       help="preconstruction buffer entries (0 = none)")
    point.add_argument("--static-seed", action="store_true",
                       help="prime the start-point stack with statically "
                            "computed region seeds")

    def observed_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("benchmark", choices=SPEC95_NAMES)
        cmd.add_argument("--tc", type=int, default=256,
                         help="trace cache entries")
        cmd.add_argument("--pb", type=int, default=256,
                         help="preconstruction buffer entries (0 = none)")
        cmd.add_argument("--static-seed", action="store_true",
                         help="prime the start-point stack with statically "
                              "computed region seeds")
        cmd.add_argument("--bucket-cycles", type=int, default=1024,
                         help="interval-metrics bucket width in cycles")

    stats = sub.add_parser(
        "stats", help="run one observed point: counter summary, interval "
                      "metrics and histograms")
    observed_args(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit metrics + histograms as JSON")

    trace = sub.add_parser(
        "trace", help="run one observed point and export a Chrome/Perfetto "
                      "trace of the engine timeline")
    observed_args(trace)
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="Perfetto trace-event JSON output "
                            "(default: trace.json)")
    trace.add_argument("--events", default=None, metavar="PATH",
                       help="also write the raw event stream as JSONL")
    trace.add_argument("--metrics", default=None, metavar="PATH",
                       help="also write interval metrics as JSONL")

    for exhibit in EXHIBITS.values():
        cmd = sub.add_parser(exhibit.name, help=exhibit.help)
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes (grouped by benchmark)")
        cmd.add_argument("--benchmarks", nargs="+", choices=SPEC95_NAMES,
                         default=None,
                         help="restrict the exhibit to these benchmarks "
                              "(intersected with its default set)")
        cmd.add_argument("--stats-json", default=None, metavar="PATH",
                         help="dump every point's raw counter summary "
                              "as JSON")

    from repro.frontends import mechanism_names

    compare = sub.add_parser(
        "compare", help="head-to-head frontend-mechanism comparison at "
                        "equal storage budgets")
    compare.add_argument("--benchmarks", nargs="+", choices=SPEC95_NAMES,
                         default=["gcc"],
                         help="benchmarks to compare on (default: gcc)")
    compare.add_argument("--mechanisms", default=None, metavar="NAMES",
                         help="comma-separated mechanism names "
                              f"(default: all of "
                              f"{','.join(mechanism_names())})")
    compare.add_argument("--tc", type=int, default=256,
                         help="trace cache entries (default: 256)")
    compare.add_argument("--pb", type=int, nargs="+", default=None,
                         metavar="N",
                         help="mechanism storage budgets in 64-byte "
                              "entries (default: 32 128 256)")
    compare.add_argument("--jobs", type=int, default=1,
                         help="worker processes (grouped by benchmark)")
    compare.add_argument("--json", action="store_true",
                         help="emit the comparison rows as JSON")

    allcmd = sub.add_parser(
        "all", help="regenerate every paper exhibit in one scheduler pass")
    allcmd.add_argument("--jobs", type=int, default=1,
                        help="worker processes (grouped by benchmark)")
    allcmd.add_argument("--benchmarks", nargs="+", choices=SPEC95_NAMES,
                        default=None,
                        help="restrict every exhibit to these benchmarks "
                             "(intersected with each exhibit's default set)")
    allcmd.add_argument("--timing-report", default=None, metavar="PATH",
                        help="write the scheduler timing report as JSON")
    allcmd.add_argument("--stats-json", default=None, metavar="PATH",
                        help="dump every point's raw counter summary "
                             "as JSON")

    def telemetry_arg(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--telemetry-json", default=None, metavar="PATH",
                         help="enable host-domain telemetry and write the "
                              "span/metrics dump as JSON")

    telemetry_arg(allcmd)
    telemetry_arg(compare)

    bench = sub.add_parser(
        "bench", help="time the hot path cold, in seconds per section")
    bench.add_argument("--quick", action="store_true",
                       help="gcc+go Figure-5 panel at 20k instructions "
                            "(the CI configuration)")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (the committed trajectory "
                            "rows are jobs=1 runs)")
    bench.add_argument("--output", default="BENCH_hotpath.json",
                       metavar="PATH",
                       help="where to write the JSON report "
                            "(default: BENCH_hotpath.json)")
    bench.add_argument("--check", default=None, metavar="PATH",
                       help="compare against the newest same-mode row of "
                            "a bench trajectory JSONL and fail if any "
                            "section regresses past --tolerance")
    bench.add_argument("--tolerance", type=float, default=0.5,
                       help="allowed fractional slowdown vs the --check "
                            "reference (default: 0.5 = +50%%)")
    bench.add_argument("--trajectory", default=None, metavar="PATH",
                       help="append this run to a bench history JSONL "
                            "(default: BENCH_trajectory.jsonl)")
    bench.add_argument("--no-trajectory", action="store_true",
                       help="do not append this run to the bench history")
    bench.add_argument("--perfetto", default=None, metavar="PATH",
                       help="write a merged host+sim Perfetto trace "
                            "(implies telemetry)")
    telemetry_arg(bench)

    from repro.check.oracles import oracle_names

    fuzz = sub.add_parser(
        "fuzz", help="differential validation: fuzz randomized workloads "
                     "through the cross-model oracle catalogue")
    fuzz.add_argument("--seeds", type=int, default=25,
                      help="number of fuzz cases (default: 25)")
    fuzz.add_argument("--seed-base", type=int, default=0,
                      help="first case seed (cases are seed-base..+seeds-1)")
    fuzz.add_argument("--budget", type=int, default=None,
                      help="instructions per case (default: 8000; "
                           "independent of the global --instructions)")
    fuzz.add_argument("--oracle", action="append", dest="oracles",
                      choices=oracle_names(), default=None, metavar="NAME",
                      help="restrict the verdict to these oracles "
                           "(repeatable; default: all of "
                           f"{', '.join(oracle_names())})")
    fuzz.add_argument("--jobs", type=int, default=1,
                      help="worker processes (grouped per case)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="report failures without shrinking them")
    fuzz.add_argument("--failures-dir", default="fuzz-failures",
                      metavar="DIR",
                      help="write a self-contained repro script per "
                           "minimized failure (default: fuzz-failures; "
                           "the directory is only created on failure)")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the fuzz report as JSON")
    telemetry_arg(fuzz)

    diff = sub.add_parser(
        "diff", help="localize the first divergence between two runs "
                     "(captures, run manifests, or spec JSON)")
    diff.add_argument("run_a", metavar="MANIFEST_A",
                      help="first run: a triage capture, a RunResult/"
                           "cache-entry JSON, or a bare spec JSON")
    diff.add_argument("run_b", metavar="MANIFEST_B",
                      help="second run, same accepted shapes")
    diff.add_argument("--bucket-cycles", type=int, default=1024,
                      help="interval bucket width for re-executed runs "
                           "(pre-built captures keep their own)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff result as JSON")

    reportcmd = sub.add_parser(
        "report", help="self-contained static HTML dashboard for a "
                       "run set")
    reportcmd.add_argument("--metrics", action="append", default=[],
                           metavar="PATH",
                           help="metrics.jsonl file (repeatable)")
    reportcmd.add_argument("--bench", action="append", default=[],
                           metavar="PATH",
                           help="BENCH_*.json report (repeatable)")
    reportcmd.add_argument("--perfetto", action="append", default=[],
                           metavar="PATH",
                           help="Perfetto trace.json to deep-link "
                                "(repeatable)")
    reportcmd.add_argument("--trajectory", action="append", default=[],
                           metavar="PATH",
                           help="BENCH_trajectory.jsonl history for the "
                                "trajectory panel (repeatable)")
    reportcmd.add_argument("--title", default=None,
                           help="dashboard title")
    reportcmd.add_argument("-o", "--output", default="report.html",
                           metavar="PATH",
                           help="output HTML file (default: report.html)")

    cachecmd = sub.add_parser("cache", help="inspect the result cache")
    cachecmd.add_argument("--clear", action="store_true",
                          help="delete every cached result")

    telemetrycmd = sub.add_parser(
        "telemetry", help="print a telemetry dump: span tree and "
                          "metrics registry")
    telemetrycmd.add_argument("input", nargs="?", default=None,
                              metavar="DUMP",
                              help="telemetry dump JSON (default: "
                                   "<cache-root>/last_telemetry.json)")
    telemetrycmd.add_argument("--openmetrics", action="store_true",
                              help="print the metrics registry as "
                                   "OpenMetrics text")
    telemetrycmd.add_argument("--json", action="store_true",
                              help="print the raw dump as canonical JSON")

    profilecmd = sub.add_parser(
        "profile", help="run another repro command under cProfile and "
                        "print a hotspot summary")
    profilecmd.add_argument("--pstats", default=None, metavar="PATH",
                            help="also write the raw .pstats capture")
    profilecmd.add_argument("--top", type=int, default=15,
                            help="hotspot rows to print (default: 15)")
    profilecmd.add_argument("wrapped", nargs=argparse.REMAINDER,
                            metavar="CMD",
                            help="the repro command line to profile")
    return parser


# ----------------------------------------------------------------------
# Exhibits (the single commands and ``repro all``)
# ----------------------------------------------------------------------
def _restrict(exhibit: Exhibit,
              selected: Optional[Sequence[str]]) -> list[str]:
    """Intersect an exhibit's default benchmark set with a user filter;
    a filter that leaves the exhibit nothing to run is a ``ValueError``
    naming the benchmarks it accepts."""
    if selected is None:
        return list(exhibit.benchmarks)
    restricted = [b for b in exhibit.benchmarks if b in selected]
    if not restricted:
        raise ValueError(
            f"--benchmarks {' '.join(selected)} shares no benchmark with "
            f"exhibit {exhibit.name!r}, which accepts "
            f"{', '.join(exhibit.benchmarks)}")
    return restricted


def _run_exhibits(args, instructions: int) -> int:
    result_cache = (None if args.no_cache
                    else ResultCache(args.cache_dir))
    exhibits = (EXHIBITS.values() if args.command == "all"
                else [EXHIBITS[args.command]])
    sections = []
    for exhibit in exhibits:
        benchmarks = _restrict(exhibit, args.benchmarks)
        sections.append((exhibit, benchmarks,
                         exhibit.specs(instructions, benchmarks)))
    specs = [spec for *_, exhibit_specs in sections for spec in exhibit_specs]
    progress = stderr_progress if (args.jobs > 1 or args.command == "all") \
        else None
    runner = ExperimentRunner(jobs=args.jobs, cache=result_cache,
                              progress=progress)
    lookup = dict(zip(specs, runner.run(specs)))
    # Each exhibit ends in a blank line, so ``all`` prints exactly what
    # the single commands print, one after another.
    for exhibit, benchmarks, exhibit_specs in sections:
        print(exhibit.render([lookup[spec] for spec in exhibit_specs],
                             benchmarks))
        print()
    stats_json = getattr(args, "stats_json", None)
    if stats_json:
        rows = [{"spec": spec.to_dict(), "label": spec.label,
                 "metrics": result.metrics}
                for spec, result in lookup.items()]
        Path(stats_json).write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} point summaries to {stats_json}",
              file=sys.stderr)
    if result_cache is not None:
        result_cache.record_last_run(args.command,
                                     runner.report.to_dict())
    if args.command == "all":
        report = runner.report
        if args.timing_report:
            Path(args.timing_report).write_text(report.to_json())
        print(f"repro all: {report.summary()}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
def _observed_spec(args, instructions: int) -> ExperimentSpec:
    return ExperimentSpec(benchmark=args.benchmark, tc_entries=args.tc,
                          pb_entries=args.pb, static_seed=args.static_seed,
                          instructions=instructions)


def _run_stats(args, instructions: int) -> int:
    observed = run_observed(_observed_spec(args, instructions),
                            bucket_cycles=args.bucket_cycles)
    if args.json:
        payload = {
            "manifest": observed.result.manifest,
            "metrics": observed.result.metrics,
            "summary": observed.stats.summary(),
            "histograms": {h.name: h.to_dict()
                           for h in observed.metrics.histograms()},
            "intervals": observed.metrics.interval_rows(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{observed.result.spec.label}  "
          f"({len(observed.events)} events observed)")
    for key, value in sorted(observed.stats.summary().items()):
        print(f"  {key:32s} {value:12.3f}")
    print("histograms:")
    for hist in observed.metrics.histograms():
        if not hist.total:
            print(f"  {hist.name:24s} (empty)")
            continue
        print(f"  {hist.name:24s} n={hist.total:<8d} "
              f"min={hist.min:<8d} mean={hist.mean:<10.2f} "
              f"max={hist.max}")
    return 0


def _run_trace(args, instructions: int) -> int:
    from repro.obs import validate_chrome_trace

    observed = run_observed(_observed_spec(args, instructions),
                            bucket_cycles=args.bucket_cycles)
    observed.write_perfetto(args.out)
    trace = json.loads(Path(args.out).read_text())
    problems = validate_chrome_trace(trace)
    if problems:  # pragma: no cover - exporter bug guard
        for problem in problems:
            print(f"invalid trace event: {problem}", file=sys.stderr)
        return 1
    print(f"wrote {len(trace['traceEvents'])} trace events "
          f"({len(observed.events)} observed) to {args.out}")
    if args.events:
        path = observed.write_events(args.events)
        print(f"wrote {len(observed.events)} events to {path}")
    if args.metrics:
        path = observed.write_metrics(args.metrics)
        print(f"wrote interval metrics to {path}")
    return 0


def _run_profile(args) -> int:
    """``repro profile <cmd>``: re-enter :func:`main` under cProfile."""
    from repro.telemetry import format_hotspots, profile_call

    wrapped = list(args.wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        print("profile: no command given (usage: repro profile "
              "[--pstats PATH] [--top N] <command> [args...])",
              file=sys.stderr)
        return 2
    status, rows, written = profile_call(lambda: main(wrapped),
                                         pstats_path=args.pstats,
                                         top=args.top)
    print(format_hotspots(rows), file=sys.stderr)
    if written is not None:
        print(f"pstats written to {written}", file=sys.stderr)
    return status


def _run_telemetry(args) -> int:
    """``repro telemetry``: render a saved dump."""
    from repro.telemetry import (
        LAST_TELEMETRY_FILE,
        MetricsRegistry,
        format_telemetry,
        load_telemetry,
    )

    path = (Path(args.input) if args.input
            else ResultCache(args.cache_dir).root / LAST_TELEMETRY_FILE)
    payload = load_telemetry(path)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.openmetrics:
        registry = MetricsRegistry.from_dict(payload.get("metrics") or {})
        print(registry.to_openmetrics(), end="")
    else:
        print(format_telemetry(payload))
    return 0


def _write_telemetry_outputs(args, tele, telemetry_json) -> None:
    """Persist the session: the requested path plus the cache-root
    copy ``repro telemetry`` reads by default."""
    from repro.telemetry import LAST_TELEMETRY_FILE, write_telemetry

    if telemetry_json:
        path = write_telemetry(tele, telemetry_json)
        print(f"telemetry dump written to {path}", file=sys.stderr)
    if not args.no_cache:
        root = ResultCache(args.cache_dir).root
        try:
            root.mkdir(parents=True, exist_ok=True)
            write_telemetry(tele, root / LAST_TELEMETRY_FILE)
        except OSError:  # pragma: no cover - unwritable cache root
            pass


def _write_bench_perfetto(args) -> int:
    """``repro bench --perfetto``: merge this session's host spans with
    a cycle-domain capture of the first bench point into one trace."""
    from repro.analysis.bench import bench_sections
    from repro.telemetry import (
        current_telemetry,
        validate_merged_trace,
        write_merged_perfetto,
    )

    tele = current_telemetry()
    if tele is None:  # pragma: no cover - main() enables before dispatch
        return 0
    sample = bench_sections(args.quick)[0][1][0]
    with tele.span("bench.observe", label=sample.label):
        observed = run_observed(sample)
    path = write_merged_perfetto(tele.tracer.spans(), observed.events,
                                 args.perfetto)
    trace = json.loads(Path(path).read_text())
    problems = validate_merged_trace(trace)
    if problems:  # pragma: no cover - exporter bug guard
        for problem in problems:
            print(f"invalid merged trace: {problem}", file=sys.stderr)
        return 1
    print(f"merged perfetto trace ({len(trace['traceEvents'])} events, "
          f"host+sim) written to {path}", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    from repro.obs.log import configure_logging, level_from_args

    configure_logging(level_from_args(args.verbose, args.log_level))
    try:
        return _main(args)
    except BrokenPipeError:
        raise  # ``python -m repro`` exits quietly on a closed pipe
    except (ValueError, OSError) as error:
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2


def _main(args) -> int:
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "telemetry":
        return _run_telemetry(args)

    telemetry_json = getattr(args, "telemetry_json", None)
    wants_perfetto = (args.command == "bench"
                      and getattr(args, "perfetto", None))
    if not telemetry_json and not wants_perfetto:
        return _dispatch(args)

    from repro.telemetry import disable_telemetry, enable_telemetry

    tele = enable_telemetry()
    try:
        with tele.span(f"cli.{args.command}"):
            status = _dispatch(args)
        _write_telemetry_outputs(args, tele, telemetry_json)
    finally:
        disable_telemetry()
    return status


def _dispatch(args) -> int:
    if args.command == "list":
        for name in SPEC95_NAMES:
            print(name)
        return 0

    if args.command == "analyze":
        from repro.api import analyze
        from repro.static import format_report

        report = analyze(args.benchmark)
        if args.json:
            print(report.to_json())
        else:
            print(format_report(report))
        return 0 if report.ok else 1

    if args.command == "predict":
        from repro.api import predict
        from repro.static import STATIC_SCHEMA_VERSION, format_prediction

        prediction = predict(args.benchmark)
        if args.json:
            payload = prediction.to_dict()
            payload["name"] = args.benchmark
            payload["schema_version"] = STATIC_SCHEMA_VERSION
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(format_prediction(prediction, name=args.benchmark))
        return 0 if prediction.complete else 1

    if args.command == "cache":
        cache = ResultCache(args.cache_dir)
        if args.clear:
            print(f"removed {cache.clear()} cached results from "
                  f"{cache.root}")
            return 0
        rows = cache.entry_info()
        total = sum(row["size_bytes"] for row in rows)
        print(f"cache root: {cache.root}")
        print(f"entries:    {len(rows)}")
        print(f"bytes:      {total}")
        stale = cache.stale_temps()
        if stale:
            print(f"stale temp files: {len(stale)} "
                  f"(stranded by killed runs; reclaim with --clear)")
        for row in rows:
            if "error" in row:
                detail = row["error"]
            else:
                detail = (f"{row['label']}  "
                          f"v{row['package_version'] or '?'}  "
                          f"{row['created_at'] or 'undated'}")
            print(f"  {row['digest'][:12]}  {row['schema']:4s} "
                  f"{row['size_bytes']:8d}B  {detail}")
        last = cache.last_run()
        if last:
            print(f"last run:   {last['command']} at {last['recorded_at']} "
                  f"— {last['requested']} requested, "
                  f"{last['unique']} unique, "
                  f"{last['cache_hits']} cache hits, "
                  f"{last['executed']} executed, "
                  f"{last['stores']} stored "
                  f"({last['wall_seconds']:.2f}s)")
        return 0

    if args.command == "bench":
        from repro.analysis.bench import (
            TRAJECTORY_FILE,
            append_trajectory,
            check_bench,
            format_bench,
            run_bench,
            trajectory_reference,
            write_bench_report,
        )

        # Resolve the --check reference before running, and so before
        # this run is appended: the reference is the last recorded run
        # of this mode, never the run that is about to finish.
        reference = None
        if args.check:
            mode = "quick" if args.quick else "full"
            if not Path(args.check).is_file():
                print(f"bench --check: reference report not found: "
                      f"{args.check}", file=sys.stderr)
                return 1
            reference = trajectory_reference(args.check, mode)
            if reference is None:
                print(f"bench --check: no {mode!r} rows in trajectory "
                      f"{args.check}", file=sys.stderr)
                return 1
        payload = run_bench(quick=args.quick, jobs=args.jobs,
                            progress=stderr_progress)
        path = write_bench_report(payload, args.output)
        print(format_bench(payload))
        print(f"report written to {path}", file=sys.stderr)
        if not args.no_trajectory:
            trajectory = append_trajectory(
                payload, args.trajectory or TRAJECTORY_FILE)
            print(f"trajectory appended to {trajectory}",
                  file=sys.stderr)
        if args.perfetto:
            status = _write_bench_perfetto(args)
            if status:
                return status
        if reference is not None:
            problems = check_bench(payload, reference,
                                   tolerance=args.tolerance)
            if problems:
                for problem in problems:
                    print(f"bench regression: {problem}", file=sys.stderr)
                return 1
            print(f"bench check vs {args.check}: "
                  f"within +{args.tolerance:.0%}", file=sys.stderr)
        return 0

    if args.command == "fuzz":
        from repro.check import DEFAULT_CHECK_INSTRUCTIONS, run_fuzz

        cache = None if args.no_cache else ResultCache(args.cache_dir)
        budget = (args.budget if args.budget is not None
                  else DEFAULT_CHECK_INSTRUCTIONS)
        progress = stderr_progress if args.jobs > 1 else None
        fuzz_report = run_fuzz(
            args.seeds, budget, seed_base=args.seed_base,
            oracles=args.oracles, jobs=args.jobs, cache=cache,
            progress=progress, minimize=not args.no_minimize,
            failures_dir=args.failures_dir)
        if args.json:
            print(json.dumps(fuzz_report.to_dict(), indent=2,
                             sort_keys=True))
        else:
            print(fuzz_report.format())
        return 0 if fuzz_report.ok else 1

    if args.command == "diff":
        from repro.triage import diff_paths

        cache = None if args.no_cache else ResultCache(args.cache_dir)
        diff = diff_paths(args.run_a, args.run_b, cache=cache,
                          bucket_cycles=args.bucket_cycles)
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
        else:
            print(diff.format())
        return 0 if diff.identical else 1

    if args.command == "report":
        from repro.triage import write_report

        path = write_report(args.output, metrics=args.metrics,
                            bench=args.bench, traces=args.perfetto,
                            trajectory=args.trajectory, title=args.title)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
        return 0

    instructions = resolve_instructions(args.instructions)
    if args.command == "compare":
        from repro.analysis import (
            COMPARE_PB_SIZES,
            compare_sweep,
            format_compare,
            rows_to_dicts,
        )

        cache = None if args.no_cache else ResultCache(args.cache_dir)
        mechanisms = (None if args.mechanisms is None
                      else [name.strip()
                            for name in args.mechanisms.split(",")
                            if name.strip()])
        pb_sizes = tuple(args.pb) if args.pb else COMPARE_PB_SIZES
        progress = stderr_progress if args.jobs > 1 else None
        rows = compare_sweep(args.benchmarks, mechanisms,
                             tc_entries=args.tc, pb_sizes=pb_sizes,
                             instructions=instructions, jobs=args.jobs,
                             result_cache=cache, progress=progress)
        if args.json:
            print(json.dumps(rows_to_dicts(rows), indent=2, sort_keys=True))
        else:
            print(format_compare(rows, instructions))
        return 0

    if args.command == "stats":
        return _run_stats(args, instructions)
    if args.command == "trace":
        return _run_trace(args, instructions)
    if args.command == "point":
        spec = ExperimentSpec(benchmark=args.benchmark, tc_entries=args.tc,
                              pb_entries=args.pb,
                              static_seed=args.static_seed,
                              instructions=instructions)
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        result = run_point(spec, cache=cache)
        for key, value in result.metrics.items():
            print(f"{key:32s} {value:12.3f}")
        return 0

    if args.command in EXHIBITS or args.command == "all":
        return _run_exhibits(args, instructions)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
