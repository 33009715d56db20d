"""Run manifests: provenance recorded alongside every result.

A manifest answers "what produced this number?" without re-deriving it
from ambient state: the spec's content digest, the schema version the
digest was computed under, the package version, the workload seed, and
the host that ran it.  ``execute_spec`` attaches one to every
:class:`~repro.runner.spec.RunResult`, and the result cache persists
it inside each entry — ``repro cache`` reports it per entry.

Manifests are provenance, not identity: they are deliberately excluded
from spec digests and result equality, so a cached result produced on
another host still hits.
"""

from __future__ import annotations

import platform
import socket
import time
from typing import TYPE_CHECKING, Any, Optional

from repro import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ExperimentSpec

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


def utc_timestamp(when: Optional[float] = None) -> str:
    """UTC ISO-8601 with the offset pinned to ``+0000``.

    ``time.strftime("...%z", time.gmtime())`` is platform-dependent
    (``%z`` may render empty for a bare ``struct_time``), so the
    offset is a literal — two processes in different ``TZ`` envs
    produce identical bytes.
    """
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(when)) + "+0000"


def host_info() -> dict[str, str]:
    """The machine fingerprint recorded in every manifest."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def build_manifest(spec: "ExperimentSpec", *,
                   include_host: bool = True) -> dict[str, Any]:
    """Provenance record for one run of ``spec``.

    ``include_host=False`` drops the host block and timestamp, leaving
    only the deterministic fields (used by tests comparing manifests
    across processes).
    """
    manifest: dict[str, Any] = {
        "manifest_schema": MANIFEST_SCHEMA,
        "spec_digest": spec.digest(),
        "schema_version": spec.schema_version,
        "package_version": __version__,
        "benchmark": spec.benchmark,
        "kind": spec.kind,
        "instructions": spec.instructions,
        "workload_seed": spec.workload_seed,
    }
    if include_host:
        # UTC with a pinned +0000 offset: manifests (and therefore
        # cache entries) must not depend on the producing host's TZ.
        manifest["created_at"] = utc_timestamp()
        manifest["host"] = host_info()
    return manifest
