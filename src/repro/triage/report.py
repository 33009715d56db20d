"""``repro report``: a self-contained static HTML dashboard.

One HTML file, no external scripts, stylesheets, fonts or images —
everything is inline SVG and a local ``<style>`` block — so the file
survives being uploaded as a CI artifact, mailed around, or opened
from ``file://`` years later.  It renders, for a run set:

* **interval metrics** (``metrics.jsonl``) — the per-bucket
  trace-miss-rate trajectory plus the four paper histograms;
* **bench reports** (``BENCH_*.json``) — a table of per-section
  wall seconds, and the cross-report wall-time trajectory when several
  reports are given;
* **bench trajectories** (``BENCH_trajectory.jsonl``) — the committed
  per-section wall-time history, one point per recorded run;
* **Perfetto traces** — deep links into the Perfetto UI for each
  exported ``trace.json``.

Charts follow one visual system: a single blue carries single-series
magnitude, marks are thin (2px lines, bars capped at 24px with rounded
data ends), gridlines are hairlines, and all text wears ink tokens —
never a series color.  Light and dark render from the same CSS custom
properties (the OS preference and an explicit ``data-theme`` stamp
both work).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Optional, Sequence

#: Plot geometry shared by every chart (viewBox units).
_W, _H = 640, 190
_ML, _MR, _MT, _MB = 56, 16, 14, 30

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --ink-primary:    #0b0b0b;
  --ink-secondary:  #52514e;
  --ink-muted:      #898781;
  --gridline:       #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --series-2:       #eb6834;
  --series-3:       #1baf7a;
  --series-4:       #eda100;
  background: var(--page);
  color: var(--ink-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --ink-primary:    #ffffff;
    --ink-secondary:  #c3c2b7;
    --ink-muted:      #898781;
    --gridline:       #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #d95926;
    --series-3:       #199e70;
    --series-4:       #c98500;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --ink-primary:    #ffffff;
  --ink-secondary:  #c3c2b7;
  --ink-muted:      #898781;
  --gridline:       #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
  --series-2:       #d95926;
  --series-3:       #199e70;
  --series-4:       #c98500;
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 2px; }
.viz-root h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
.viz-root h3 { font-size: 13px; font-weight: 600; margin: 0 0 6px;
               color: var(--ink-secondary); }
.viz-root .subtitle { color: var(--ink-muted); margin: 0 0 18px; }
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 14px 16px;
  margin: 0 0 14px;
}
.viz-root .grid { display: grid; gap: 14px;
                  grid-template-columns: repeat(auto-fit,
                                                minmax(320px, 1fr)); }
.viz-root svg { display: block; width: 100%; height: auto; }
.viz-root table { border-collapse: collapse; width: 100%;
                  font-size: 13px; }
.viz-root th { text-align: left; color: var(--ink-muted);
               font-weight: 500; border-bottom: 1px solid var(--gridline);
               padding: 4px 10px 4px 0; }
.viz-root td { padding: 4px 10px 4px 0;
               border-bottom: 1px solid var(--gridline);
               font-variant-numeric: tabular-nums; }
.viz-root .legend { display: flex; gap: 16px; align-items: center;
                    font-size: 12px; color: var(--ink-secondary);
                    margin: 0 0 4px; }
.viz-root .legend .key { display: inline-flex; gap: 6px;
                         align-items: center; }
.viz-root .swatch { width: 10px; height: 10px; border-radius: 50%;
                    display: inline-block; }
.viz-root a { color: var(--series-1); }
.viz-root .note { color: var(--ink-muted); font-size: 12px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """Clean tick/label number: int when whole, short float otherwise."""
    if abs(value - round(value)) < 1e-9:
        return f"{int(round(value)):,}"
    return f"{value:,.2f}".rstrip("0").rstrip(".")


def _ticks(top: float) -> list[float]:
    """0 / mid / top — the recessive 3-line grid every chart uses."""
    if top <= 0:
        top = 1.0
    return [0.0, top / 2.0, top]


def _grid(top: float, unit: str = "") -> tuple[str, "_YScale"]:
    """Horizontal hairline gridlines + muted tick labels."""
    scale = _YScale(top)
    parts = []
    for tick in _ticks(top):
        y = scale(tick)
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" '
                     f'y2="{y:.1f}" stroke="var(--gridline)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="11" '
                     f'fill="var(--ink-muted)">{_fmt(tick)}{unit}</text>')
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="var(--baseline)" '
                 f'stroke-width="1"/>')
    return "".join(parts), scale


class _YScale:
    def __init__(self, top: float) -> None:
        self.top = top if top > 0 else 1.0

    def __call__(self, value: float) -> float:
        span = _H - _MT - _MB
        return _H - _MB - (min(value, self.top) / self.top) * span


def _svg(body: str, *, height: int = _H) -> str:
    return (f'<svg viewBox="0 0 {_W} {height}" role="img" '
            f'xmlns="http://www.w3.org/2000/svg">{body}</svg>')


def _bar_path(x: float, y_top: float, width: float, y_base: float,
              radius: float = 4.0) -> str:
    """Column with a 4px-rounded data end and a square baseline."""
    radius = min(radius, width / 2, max(y_base - y_top, 0.0))
    return (f"M {x:.1f},{y_base:.1f} "
            f"L {x:.1f},{y_top + radius:.1f} "
            f"Q {x:.1f},{y_top:.1f} {x + radius:.1f},{y_top:.1f} "
            f"L {x + width - radius:.1f},{y_top:.1f} "
            f"Q {x + width:.1f},{y_top:.1f} "
            f"{x + width:.1f},{y_top + radius:.1f} "
            f"L {x + width:.1f},{y_base:.1f} Z")


def _condense(counts: dict[int, int], max_bins: int = 32
              ) -> list[tuple[str, int]]:
    """Histogram counts folded into at most ``max_bins`` value ranges."""
    if not counts:
        return []
    values = sorted(counts)
    if len(values) <= max_bins:
        return [(str(value), counts[value]) for value in values]
    low, high = values[0], values[-1]
    width = max(1, (high - low + max_bins) // max_bins)
    bins: dict[int, int] = {}
    for value, count in counts.items():
        bins[(value - low) // width] = bins.get((value - low) // width,
                                                0) + count
    out = []
    for index in sorted(bins):
        start = low + index * width
        label = (str(start) if width == 1
                 else f"{start}–{start + width - 1}")
        out.append((label, bins[index]))
    return out


def _histogram_svg(hist: dict[str, Any]) -> str:
    counts = {int(value): int(count)
              for value, count in hist.get("counts", {}).items()}
    bars = _condense(counts)
    if not bars:
        return '<p class="note">(empty)</p>'
    top = max(count for _, count in bars)
    grid, scale = _grid(float(top))
    plot_width = _W - _ML - _MR
    slot = plot_width / len(bars)
    bar_width = min(24.0, max(slot - 2.0, 1.0))
    peak = max(range(len(bars)), key=lambda i: bars[i][1])
    parts = [grid]
    for index, (label, count) in enumerate(bars):
        x = _ML + index * slot + (slot - bar_width) / 2
        y_top = scale(count)
        parts.append(f'<path d="{_bar_path(x, y_top, bar_width, _H - _MB)}" '
                     f'fill="var(--series-1)">'
                     f'<title>{_esc(label)}: {count}</title></path>')
        if index == peak:
            parts.append(f'<text x="{x + bar_width / 2:.1f}" '
                         f'y="{y_top - 5:.1f}" text-anchor="middle" '
                         f'font-size="11" fill="var(--ink-secondary)">'
                         f'{_fmt(count)}</text>')
        if index in (0, len(bars) - 1, peak):
            parts.append(f'<text x="{x + bar_width / 2:.1f}" '
                         f'y="{_H - _MB + 16}" text-anchor="middle" '
                         f'font-size="11" fill="var(--ink-muted)">'
                         f'{_esc(label)}</text>')
    return _svg("".join(parts))


def _series_svg(intervals: list[dict[str, Any]],
                counter: str = "trace_misses_per_ki") -> str:
    points = [(int(row["start_cycle"]), float(row.get(counter, 0.0)))
              for row in intervals]
    if not points:
        return '<p class="note">(no interval rows)</p>'
    top = max(value for _, value in points)
    grid, scale = _grid(top)
    span = max(points[-1][0] - points[0][0], 1)
    plot_width = _W - _ML - _MR

    def x_of(cycle: int) -> float:
        return _ML + (cycle - points[0][0]) / span * plot_width

    coords = " ".join(f"{x_of(cycle):.1f},{scale(value):.1f}"
                      for cycle, value in points)
    last_x, last_y = x_of(points[-1][0]), scale(points[-1][1])
    parts = [grid]
    parts.append(f'<polyline points="{coords}" fill="none" '
                 f'stroke="var(--series-1)" stroke-width="2" '
                 f'stroke-linejoin="round" stroke-linecap="round"/>')
    parts.append(f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="4" '
                 f'fill="var(--series-1)" stroke="var(--surface-1)" '
                 f'stroke-width="2"><title>cycle {points[-1][0]}: '
                 f'{_fmt(points[-1][1])}</title></circle>')
    parts.append(f'<text x="{min(last_x, _W - _MR) - 2:.1f}" '
                 f'y="{max(last_y - 8, 12):.1f}" text-anchor="end" '
                 f'font-size="11" fill="var(--ink-secondary)">'
                 f'{_fmt(points[-1][1])}</text>')
    for cycle, anchor in ((points[0][0], "start"), (points[-1][0], "end")):
        parts.append(f'<text x="{x_of(cycle):.1f}" y="{_H - _MB + 16}" '
                     f'text-anchor="{anchor}" font-size="11" '
                     f'fill="var(--ink-muted)">cycle {_fmt(cycle)}</text>')
    return _svg("".join(parts))


_TRAJECTORY_SLOTS = ("--series-1", "--series-2", "--series-3", "--series-4")


def _bench_trajectory_svg(reports: list[tuple[str, dict[str, Any]]]) -> str:
    """Per-section ``current_seconds`` across reports, report order."""
    section_names: list[str] = []
    for _, payload in reports:
        for name in payload.get("sections", {}):
            if name not in section_names:
                section_names.append(name)
    section_names = section_names[:len(_TRAJECTORY_SLOTS)]
    if not section_names:
        return '<p class="note">(no sections)</p>'
    series = {
        name: [float(payload.get("sections", {})
                     .get(name, {}).get("current_seconds", 0.0))
               for _, payload in reports]
        for name in section_names}
    top = max(max(values) for values in series.values())
    grid, scale = _grid(top, "s")
    plot_width = _W - _ML - _MR
    step = plot_width / max(len(reports) - 1, 1)
    parts = [grid]
    for slot, name in enumerate(section_names):
        color = f"var({_TRAJECTORY_SLOTS[slot]})"
        coords = " ".join(
            f"{_ML + index * step:.1f},{scale(value):.1f}"
            for index, value in enumerate(series[name]))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2" '
                     f'stroke-linejoin="round" stroke-linecap="round"/>')
        for index, value in enumerate(series[name]):
            parts.append(f'<circle cx="{_ML + index * step:.1f}" '
                         f'cy="{scale(value):.1f}" r="4" fill="{color}" '
                         f'stroke="var(--surface-1)" stroke-width="2">'
                         f'<title>{_esc(name)} / {_esc(reports[index][0])}:'
                         f' {value:.2f}s</title></circle>')
    for index, (label, _) in enumerate(reports):
        anchor = ("start" if index == 0
                  else "end" if index == len(reports) - 1 else "middle")
        parts.append(f'<text x="{_ML + index * step:.1f}" '
                     f'y="{_H - _MB + 16}" text-anchor="{anchor}" '
                     f'font-size="11" fill="var(--ink-muted)">'
                     f'{_esc(label)}</text>')
    legend = "".join(
        f'<span class="key"><span class="swatch" style="background: '
        f'var({_TRAJECTORY_SLOTS[slot]})"></span>{_esc(name)}</span>'
        for slot, name in enumerate(section_names))
    return f'<div class="legend">{legend}</div>' + _svg("".join(parts))


# ----------------------------------------------------------------------
# Input readers
# ----------------------------------------------------------------------
def _read_metrics(path: Path) -> dict[str, Any]:
    meta: dict[str, Any] = {}
    intervals: list[dict[str, Any]] = []
    histograms: list[dict[str, Any]] = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError(f"{path}: line {number} is not a JSON object "
                             "(a metrics file holds one object per line)")
        if row.get("type") == "meta":
            meta = row
        elif row.get("type") == "interval":
            intervals.append(row)
        elif row.get("type") == "histogram":
            histograms.append(row)
    return {"meta": meta, "intervals": intervals, "histograms": histograms}


def _metrics_section(paths: Sequence[Path]) -> str:
    blocks = ["<h2>Interval metrics</h2>"]
    for path in paths:
        data = _read_metrics(path)
        meta = data["meta"]
        blocks.append('<div class="card">')
        blocks.append(f"<h3>{_esc(path.name)}</h3>")
        blocks.append(f'<p class="note">bucket width '
                      f'{_esc(meta.get("bucket_cycles", "?"))} cycles, '
                      f'{_esc(meta.get("buckets", len(data["intervals"])))} '
                      f'buckets</p>')
        blocks.append("<h3>trace misses per 1000 instructions</h3>")
        blocks.append(_series_svg(data["intervals"]))
        blocks.append('<div class="grid">')
        for hist in data["histograms"]:
            blocks.append(f'<div><h3>{_esc(hist.get("name"))} '
                          f'(n={_esc(hist.get("count", 0))})</h3>'
                          f'{_histogram_svg(hist)}</div>')
        blocks.append("</div></div>")
    return "".join(blocks)


def _check_sections(payload: Any, where: str) -> dict[str, Any]:
    """``payload`` itself, once it is an object whose ``sections`` (if
    any) maps section names to objects, as bench reports and trajectory
    rows do."""
    if isinstance(payload, dict):
        sections = payload.get("sections", {})
        if isinstance(sections, dict) and all(
                isinstance(section, dict) for section in sections.values()):
            return payload
    raise ValueError(f"{where}: expected an object whose \"sections\" "
                     "maps section names to objects")


def _bench_section(paths: Sequence[Path]) -> str:
    reports = [(path.name,
                _check_sections(json.loads(path.read_text()), str(path)))
               for path in paths]
    blocks = ["<h2>Bench</h2>"]
    if len(reports) > 1:
        blocks.append('<div class="card">'
                      "<h3>wall-time trajectory (current seconds)</h3>"
                      f"{_bench_trajectory_svg(reports)}</div>")
    for name, payload in reports:
        rows = "".join(
            f"<tr><td>{_esc(section_name)}</td>"
            f"<td>{_esc(section.get('specs', ''))}</td>"
            f"<td>{section.get('current_seconds', 0):.2f}</td></tr>"
            for section_name, section
            in payload.get("sections", {}).items())
        blocks.append(f'<div class="card"><h3>{_esc(name)} '
                      f"({_esc(payload.get('mode', '?'))} mode, "
                      f"jobs={_esc(payload.get('jobs', '?'))})</h3>"
                      "<table><tr><th>section</th><th>specs</th>"
                      f"<th>seconds</th></tr>{rows}</table></div>")
    return "".join(blocks)


def _trajectory_section(paths: Sequence[Path]) -> str:
    """Committed ``BENCH_trajectory.jsonl`` rows as a wall-time chart.

    Each JSONL row carries ``sections.<name>.current_seconds`` — the
    same shape :func:`_bench_trajectory_svg` plots for report files —
    so trajectory rows become pseudo-reports labelled by commit.
    """
    from repro.analysis.bench import read_trajectory

    blocks = ["<h2>Bench trajectory</h2>"]
    for path in paths:
        rows = read_trajectory(path)
        blocks.append('<div class="card">')
        blocks.append(f"<h3>{_esc(path.name)} ({len(rows)} run(s))</h3>")
        if len(rows) < 2:
            blocks.append('<p class="note">(need at least two recorded '
                          "runs for a trajectory)</p>")
        else:
            reports = [(str(row.get("commit", "?")),
                        _check_sections(row, f"{path}: row {number}"))
                       for number, row in enumerate(rows, 1)]
            blocks.append(_bench_trajectory_svg(reports))
        blocks.append("</div>")
    return "".join(blocks)


def _traces_section(paths: Sequence[Path]) -> str:
    items = []
    for path in paths:
        size = path.stat().st_size if path.is_file() else 0
        items.append(
            f'<div class="card"><h3>{_esc(path.name)}</h3>'
            f'<p class="note">{size:,} bytes — '
            f'<a href="https://ui.perfetto.dev/#!/viewer" '
            f'rel="noreferrer">open ui.perfetto.dev</a> and drop '
            f'<code>{_esc(path)}</code> into the viewer.</p></div>')
    return "<h2>Perfetto traces</h2>" + "".join(items)


def render_report(*, metrics: Sequence[str | Path] = (),
                  bench: Sequence[str | Path] = (),
                  traces: Sequence[str | Path] = (),
                  trajectory: Sequence[str | Path] = (),
                  title: str = "repro triage report") -> str:
    """The dashboard HTML for a run set (one self-contained string)."""
    metrics_paths = [Path(p) for p in metrics]
    bench_paths = [Path(p) for p in bench]
    trace_paths = [Path(p) for p in traces]
    trajectory_paths = [Path(p) for p in trajectory]
    if not (metrics_paths or bench_paths or trace_paths
            or trajectory_paths):
        raise ValueError("nothing to report: give at least one "
                         "metrics.jsonl, bench report, trajectory, "
                         "or trace")
    sections = []
    if metrics_paths:
        sections.append(_metrics_section(metrics_paths))
    if bench_paths:
        sections.append(_bench_section(bench_paths))
    if trajectory_paths:
        sections.append(_trajectory_section(trajectory_paths))
    if trace_paths:
        sections.append(_traces_section(trace_paths))
    counts = ", ".join(part for part in (
        f"{len(metrics_paths)} metrics file(s)" if metrics_paths else "",
        f"{len(bench_paths)} bench report(s)" if bench_paths else "",
        f"{len(trajectory_paths)} trajectory file(s)"
        if trajectory_paths else "",
        f"{len(trace_paths)} trace(s)" if trace_paths else "") if part)
    return (
        "<!doctype html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" '
        'content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n"
        '<body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="subtitle">{_esc(counts)}</p>\n'
        + "\n".join(sections)
        + "\n</body>\n</html>\n")


def write_report(path: str | Path, *,
                 metrics: Sequence[str | Path] = (),
                 bench: Sequence[str | Path] = (),
                 traces: Sequence[str | Path] = (),
                 trajectory: Sequence[str | Path] = (),
                 title: Optional[str] = None) -> Path:
    """Render and write the dashboard; returns the output path."""
    target = Path(path)
    kwargs: dict[str, Any] = {"metrics": metrics, "bench": bench,
                              "traces": traces, "trajectory": trajectory}
    if title is not None:
        kwargs["title"] = title
    target.write_text(render_report(**kwargs))
    return target
