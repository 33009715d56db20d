"""The process-wide telemetry session and its on/off switch.

Telemetry is *opt-in per process*: a module-level session holds one
:class:`~repro.telemetry.spans.SpanTracer` plus one
:class:`~repro.telemetry.registry.MetricsRegistry`, and every
instrumentation site in the harness follows the same monomorphic guard
discipline as the cycle-domain bus (PR 4)::

    self.tele = current_telemetry()   # captured once, at construction
    ...
    if self.tele:                     # one attribute test when off
        with self.tele.span("cache.get", outcome="hit"):
            ...

With no session enabled the guard is a single falsy attribute load —
``repro all`` output stays byte-identical whether telemetry is on or
off, which CI's ``telemetry-smoke`` job asserts.

Crossing the process pool: the parent captures
:meth:`Telemetry.handoff` into each submitted task, the worker calls
:func:`activate_worker` (replacing any fork-inherited session so
parent spans are never double-counted), and ships
:meth:`Telemetry.harvest` back for the parent to
:meth:`Telemetry.absorb`.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager, contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

from repro.obs.manifest import utc_timestamp
from repro.telemetry.registry import MetricsRegistry, format_metrics
from repro.telemetry.spans import SpanTracer, format_span_tree

#: Bump when the dump layout changes incompatibly.
TELEMETRY_SCHEMA = 1

#: File (under the result-cache root) holding the most recent
#: ``--telemetry-json`` dump — what ``repro telemetry`` reads.
LAST_TELEMETRY_FILE = "last_telemetry.json"


class Telemetry:
    """One session: a span tracer plus a metrics registry."""

    def __init__(self,
                 context: Optional[Mapping[str, Any]] = None) -> None:
        self.tracer = SpanTracer(context)
        self.registry = MetricsRegistry()
        self.created_at = utc_timestamp()

    # ------------------------------------------------------------------
    def span(self, name: str, *,
             context: Optional[Mapping[str, Any]] = None,
             **attrs: Any) -> AbstractContextManager[dict[str, Any]]:
        """Open a span on this session's tracer."""
        return self.tracer.span(name, context=context, **attrs)

    def handoff(self) -> dict[str, Any]:
        """Context payload to embed in a submitted pool task."""
        return self.tracer.current_context()

    def harvest(self) -> dict[str, Any]:
        """Worker-side: spans + metrics to ship back to the parent."""
        return {"schema": TELEMETRY_SCHEMA,
                "spans": self.tracer.spans(),
                "metrics": self.registry.to_dict()}

    def absorb(self, payload: Optional[Mapping[str, Any]]) -> None:
        """Parent-side: fold a :meth:`harvest` payload in."""
        if not payload:
            return
        self.tracer.adopt(payload.get("spans") or [])
        metrics = payload.get("metrics")
        if metrics:
            self.registry.merge(metrics)

    def dump(self) -> dict[str, Any]:
        """The full session as one JSON-ready payload."""
        return {"schema": TELEMETRY_SCHEMA,
                "created_at": self.created_at,
                "pid": self.tracer.pid,
                "spans": self.tracer.spans(),
                "metrics": self.registry.to_dict()}


# ----------------------------------------------------------------------
# The process-wide session
# ----------------------------------------------------------------------
_ACTIVE: Optional[Telemetry] = None


def enable_telemetry(
        context: Optional[Mapping[str, Any]] = None) -> Telemetry:
    """Enable (or return the already-active) process session."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Telemetry(context)
    return _ACTIVE


def disable_telemetry() -> Optional[Telemetry]:
    """Tear the session down; returns it for a final dump."""
    global _ACTIVE
    session, _ACTIVE = _ACTIVE, None
    return session


def current_telemetry() -> Optional[Telemetry]:
    """The active session, or ``None`` — the ``self.tele`` guard."""
    return _ACTIVE


def activate_worker(
        context: Optional[Mapping[str, Any]] = None) -> Telemetry:
    """Fresh session for a pool worker.

    Always replaces the module global: under the ``fork`` start method
    the child inherits the parent's session, and harvesting that would
    ship the parent's own spans back as if the worker produced them.
    """
    global _ACTIVE
    _ACTIVE = Telemetry(context)
    return _ACTIVE


@contextmanager
def telemetry_session(
        context: Optional[Mapping[str, Any]] = None
) -> Iterator[Telemetry]:
    """Scoped session: enables on entry, disables on exit.

    Nested use attaches to the existing session and leaves it active.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        yield _ACTIVE
        return
    session = Telemetry(context)
    _ACTIVE = session
    try:
        yield session
    finally:
        if _ACTIVE is session:
            _ACTIVE = None


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[dict[str, Any]]]:
    """Module-level span helper: a no-op when telemetry is off.

    For call sites without a ``self.tele`` slot (free functions, CLI
    dispatch).  Yields the live record, or ``None`` when disabled.
    """
    session = _ACTIVE
    if session is None:
        yield None
        return
    with session.tracer.span(name, **attrs) as record:
        yield record


# ----------------------------------------------------------------------
# Persistence + rendering (``--telemetry-json`` / ``repro telemetry``)
# ----------------------------------------------------------------------
def write_telemetry(session: Telemetry, path: str | Path) -> Path:
    """Write a session dump as sorted-keys JSON; returns the path."""
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(session.dump(), indent=2,
                                 sort_keys=True) + "\n")
    return target


def load_telemetry(path: str | Path) -> dict[str, Any]:
    """Read a :func:`write_telemetry` dump back; ``ValueError`` names
    the path when it is missing, unreadable or not a dump."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read dump {path} ({error}); run a "
                         "command with --telemetry-json first") from None
    if not isinstance(payload, dict):
        raise ValueError(f"cannot read dump {path}: not a JSON object")
    return payload


def format_telemetry(payload: Mapping[str, Any]) -> str:
    """Human-readable dump: header, span tree, metrics table."""
    spans = list(payload.get("spans") or [])
    lines = [f"telemetry dump (pid {payload.get('pid')}, "
             f"{payload.get('created_at')}, {len(spans)} spans)"]
    tree = format_span_tree(spans)
    if tree:
        lines.extend(["", "spans:", tree])
    metrics = payload.get("metrics") or {}
    table = format_metrics(metrics)
    if table:
        lines.extend(["", "metrics:", table])
    return "\n".join(lines)
