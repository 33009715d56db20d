"""Optional ``cProfile`` capture behind ``repro profile <cmd>``.

``repro profile`` runs a whole CLI command in one capture and prints
its top-N hotspots.  Only one ``cProfile.Profile`` can be active per
interpreter; when a capture is requested inside an already-profiled
region, it degrades to an unprofiled run instead of raising —
profiling must never turn a green run red.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Hotspot rows printed by ``repro profile``.
DEFAULT_TOP = 10


def hotspot_rows(stats: pstats.Stats,
                 top: int = DEFAULT_TOP) -> list[dict[str, Any]]:
    """The ``top`` functions by cumulative time, as JSON-ready rows.

    Ties (and the sort itself) break on the function triple, so the
    summary is deterministic for a given profile.
    """
    raw: dict[tuple[str, int, str], tuple[Any, ...]] = getattr(
        stats, "stats", {})
    order = sorted(raw, key=lambda func: (-float(raw[func][3]), func))
    rows: list[dict[str, Any]] = []
    for func in order[:max(top, 0)]:
        filename, lineno, name = func
        entry = raw[func]
        rows.append({
            "function": f"{Path(filename).name}:{lineno}({name})",
            "ncalls": int(entry[1]),
            "tottime": round(float(entry[2]), 6),
            "cumtime": round(float(entry[3]), 6),
        })
    return rows


def format_hotspots(rows: Sequence[dict[str, Any]]) -> str:
    """Fixed-width table of :func:`hotspot_rows` output."""
    if not rows:
        return "no profile data captured"
    lines = [f"{'ncalls':>8s} {'tottime':>9s} {'cumtime':>9s} function"]
    for row in rows:
        lines.append(f"{row['ncalls']:8d} {row['tottime']:9.4f} "
                     f"{row['cumtime']:9.4f} {row['function']}")
    return "\n".join(lines)


def profile_call(fn: Callable[[], T], *,
                 pstats_path: Optional[str | Path] = None,
                 top: int = DEFAULT_TOP
                 ) -> tuple[T, list[dict[str, Any]], Optional[Path]]:
    """Run ``fn`` under ``cProfile``.

    Returns ``(result, hotspot rows, written .pstats path)``.  If
    another profiler is already active the call runs unprofiled and
    the rows come back empty.
    """
    profiler = cProfile.Profile()
    try:
        profiler.enable()
    except ValueError:
        return fn(), [], None
    try:
        result = fn()
    finally:
        profiler.disable()
    written: Optional[Path] = None
    if pstats_path is not None:
        written = Path(pstats_path)
        if written.parent != Path("."):
            written.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(written))
    stats = pstats.Stats(profiler)
    return result, hotspot_rows(stats, top=top), written
