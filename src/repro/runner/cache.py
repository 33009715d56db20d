"""Content-addressed on-disk cache of experiment results.

Each :class:`~repro.runner.spec.RunResult` is stored as one JSON file
under ``<root>/v<schema>/<digest>.json`` where ``digest`` is the
spec's SHA-256 content address (:meth:`ExperimentSpec.digest`).  The
key is ``(schema_version, spec digest)``: changing any spec field *or*
bumping :data:`~repro.runner.spec.SPEC_SCHEMA_VERSION` lands on a new
path, so stale entries are never read — only orphaned (reclaim with
:meth:`ResultCache.clear` or ``python -m repro cache --clear``).

The default root is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.  Unreadable entries are treated as misses (the
point is recomputed and the entry rewritten); *corrupted* entries —
readable but failing the JSON/schema/digest checks — are additionally
quarantined by renaming to ``<name>.json.corrupt``, so a warm rerun
pays the parse-and-reject cost once, not on every pass, while the bad
bytes stay on disk for inspection.  Writes are atomic (temp file +
rename) so a killed run never leaves a truncated entry behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

from repro.obs.log import get_logger
from repro.runner.spec import SPEC_SCHEMA_VERSION, ExperimentSpec, RunResult
from repro.telemetry.session import current_telemetry, utc_timestamp

#: Environment override for the cache root (used by tests and CI to
#: keep runs hermetic).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: File (under the cache root) recording the most recent scheduler
#: pass's hit/miss tally — what ``repro cache`` reports.
LAST_RUN_FILE = "last_run.json"

log = get_logger("runner.cache")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Digest-keyed store of :class:`RunResult` payloads.

    ``hits`` / ``misses`` / ``stores`` count this process's traffic —
    the timing report uses them to prove a warm rerun executed nothing.
    """

    def __init__(self, root: str | Path | None = None,
                 schema_version: int = SPEC_SCHEMA_VERSION) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # Captured once: telemetry enabled after construction stays
        # invisible, keeping the guard monomorphic (PR 4 discipline).
        self.tele = current_telemetry()

    def _count(self, metric: str, **labels: str) -> None:
        if self.tele:
            self.tele.registry.counter(
                f"repro_cache_{metric}", labels or None,
                help=f"Result-cache {metric.replace('_', ' ')}").add(1)

    # ------------------------------------------------------------------
    def path_for(self, spec: ExperimentSpec) -> Path:
        digest = spec.digest(self.schema_version)
        return self.root / f"v{self.schema_version}" / f"{digest}.json"

    def get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None``.

        Any failure mode — missing file, unreadable file, malformed
        JSON, schema/digest mismatch — is a miss, never an error.  A
        *corrupted* entry (the file exists but cannot be trusted) is
        additionally reported through the ``repro.runner.cache``
        logger, since the silent-recovery path hides real damage.
        """
        if not self.tele:
            return self._get(spec)
        with self.tele.span("cache.get",
                            digest=spec.digest(self.schema_version)[:12]
                            ) as record:
            result = self._get(spec)
            outcome = "hit" if result is not None else "miss"
            record["attrs"]["outcome"] = outcome
            self._count("requests", outcome=outcome)
            return result

    def _get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        digest = spec.digest(self.schema_version)
        path = self.root / f"v{self.schema_version}" / f"{digest}.json"
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            log.warning("unreadable result-cache entry %s (%s); "
                        "recomputing", path.name, error)
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if payload.get("schema") != self.schema_version:
                raise ValueError("schema mismatch")
            if payload.get("digest") != digest:
                raise ValueError("digest mismatch")
            result = RunResult.from_dict(payload, cached=True)
            # The inert simulator field is excluded from the digest: a
            # "scalar" spec may legitimately hit an entry a "vectorized"
            # one stored (and vice versa).  Anything else differing
            # under the same digest is corruption.
            if result.spec.replace(simulator=spec.simulator) != spec:
                raise ValueError("spec mismatch")
            if result.spec.simulator != spec.simulator:
                result = replace(result, spec=spec)
        except (ValueError, KeyError, TypeError) as error:
            quarantined = self._quarantine(path)
            log.warning("corrupted result-cache entry %s (%s); "
                        "quarantined as %s and recomputing",
                        path.name, error,
                        quarantined.name if quarantined else "<unremovable>")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupted entry aside so warm reruns stop re-parsing it.

        The ``<name>.json.corrupt`` rename takes the file out of
        :meth:`entries`'s ``v*/*.json`` glob and off :meth:`get`'s path
        while preserving the bytes for post-mortem inspection;
        :meth:`clear` reclaims quarantined files too.  Returns the new
        path, or ``None`` if the rename itself failed (the entry then
        stays in place and keeps being reported as a miss).
        """
        target = path.with_name(path.name + ".corrupt")
        self._count("quarantined")
        try:
            return path.replace(target)
        except OSError:
            return None

    def quarantined(self) -> list[Path]:
        """Entries moved aside by :meth:`_quarantine`."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("v*/*.json.corrupt"))

    def stale_temps(self) -> list[Path]:
        """Atomic-write temp files stranded by killed runs.

        :meth:`put` and :meth:`record_last_run` write through
        ``<name>.tmp.<pid>`` files before the atomic rename; a process
        killed between the write and the rename leaves the temp behind
        forever (it is keyed by a dead pid, so no later run reclaims
        it).  These are invisible to :meth:`entries` — ``repro cache``
        reports them and :meth:`clear` sweeps them.
        """
        if not self.root.is_dir():
            return []
        return sorted(list(self.root.glob("v*/*.tmp.*"))
                      + list(self.root.glob("*.tmp.*")))

    def put(self, spec: ExperimentSpec, result: RunResult) -> Path:
        """Atomically store ``result`` under ``spec``'s digest."""
        if not self.tele:
            return self._put(spec, result)
        with self.tele.span("cache.put",
                            digest=spec.digest(self.schema_version)[:12]):
            self._count("writes")
            return self._put(spec, result)

    def _put(self, spec: ExperimentSpec, result: RunResult) -> Path:
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": self.schema_version,
                   "digest": spec.digest(self.schema_version),
                   **result.to_dict()}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(path)
        self.stores += 1
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All stored entry files (every schema generation)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("v*/*.json"))

    def entry_info(self) -> list[dict[str, Any]]:
        """Per-entry manifest summary, in :meth:`entries` order.

        Each row carries the entry's spec digest (file stem), schema
        version (directory), size, and — when the stored payload has a
        manifest — the spec label, package version and creation time.
        Unreadable entries are reported with an ``error`` field rather
        than skipped, so damage is visible in ``repro cache`` output.
        """
        rows: list[dict[str, Any]] = []
        for path in self.entries():
            row: dict[str, Any] = {
                "digest": path.stem,
                "schema": path.parent.name,
                "size_bytes": 0,
            }
            try:
                # stat() races against concurrent deletion like every
                # other access; a vanished entry is an error row, not an
                # uncaught OSError.
                row["size_bytes"] = path.stat().st_size
                payload = json.loads(path.read_text())
                result = RunResult.from_dict(payload, cached=True)
            except (OSError, ValueError, KeyError, TypeError) as error:
                row["error"] = f"unreadable ({type(error).__name__})"
            else:
                row["label"] = result.spec.label
                manifest = result.manifest or {}
                row["package_version"] = manifest.get("package_version")
                row["created_at"] = manifest.get("created_at")
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    def record_last_run(self, command: str,
                        report: dict[str, Any]) -> Path:
        """Persist the tally of the scheduler pass that just finished
        (``repro cache`` reports it).  ``report`` is a
        :meth:`~repro.runner.pool.TimingReport.to_dict` payload."""
        path = self.root / LAST_RUN_FILE
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "command": command,
            # UTC, pinned +0000: the recorded tally must not depend on
            # the producing host's TZ (regression-tested).
            "recorded_at": utc_timestamp(),
            "requested": report.get("requested", 0),
            "unique": report.get("unique", 0),
            "executed": report.get("executed", 0),
            "cache_hits": report.get("cache_hits", 0),
            "stores": self.stores,
            "wall_seconds": report.get("wall_seconds", 0.0),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(path)
        return path

    def last_run(self) -> Optional[dict[str, Any]]:
        """The most recent :meth:`record_last_run` payload, if any."""
        try:
            return json.loads((self.root / LAST_RUN_FILE).read_text())
        except (OSError, ValueError):
            return None

    def clear(self) -> int:
        """Delete every stored entry (quarantined entries and stranded
        atomic-write temps included); returns the number removed."""
        removed = 0
        for path in self.entries() + self.quarantined() + self.stale_temps():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deletion
                pass
        return removed
