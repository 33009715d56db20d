"""Experiment descriptions: the single currency for a simulation point.

An :class:`ExperimentSpec` captures *everything* that determines a
simulation result — benchmark, trace-cache/preconstruction-buffer
sizes, static seeding, preprocessing, the simulation kind, instruction
budget and workload seed.  Because the dataclass is frozen and all its
fields are plain scalars, a spec is hashable (deduplicatable), picklable
(shippable to worker processes), and digestible (content-addressable in
the on-disk result cache).

A :class:`RunResult` is the envelope that comes back: the spec it
answers, a flat JSON-serialisable metrics mapping, the execution wall
time, and whether the result was served from cache.

Instruction budget resolution
-----------------------------
Historically the CLI ``--instructions`` flag and the
``REPRO_INSTRUCTIONS`` environment variable competed (the flag's
baked-in default silently shadowed the env var).  The single documented
precedence order, implemented by :func:`resolve_instructions`:

1. an **explicit value** (CLI flag, API argument, spec field) wins;
2. otherwise the ``REPRO_INSTRUCTIONS`` environment variable;
3. otherwise the built-in default, :data:`DEFAULT_INSTRUCTIONS`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, ClassVar, Mapping, Optional

from repro.core import PreconstructionConfig
from repro.preprocess import PreprocessConfig
from repro.processor import BackendConfig, ProcessorConfig
from repro.sim import FrontendConfig
from repro.trace import TraceCacheConfig

#: Bump when spec semantics or recorded metrics change incompatibly;
#: every cached result keyed under an older schema is ignored.
#: v2: timing-model bugfixes — trace-hit pace uses ceiling division
#: instead of ``round``, preconstruction I-cache port overdraft is
#: carried across ticks, and the default set-index hash is
#: PYTHONHASHSEED-independent.  Metrics move slightly; old cached
#: results must not be reused.
#: v3: ``kind="check"`` verdicts gain the static-vs-dynamic ``coverage``
#: oracle (and the verifier behind the generate gate grew to 16 rules);
#: verdicts cached under v2 would silently lack both.
#: v4: specs gain the ``mechanism`` field (the competing-frontend zoo)
#: and ``kind="check"`` verdicts validate the spec's mechanism; the
#: field participates in the digest, so every spec re-keys.
#: v5: specs gained an inert ``simulator`` execution-strategy field,
#: excluded from the digest.
#: v6: the ``simulator`` field is gone (every point runs the one
#: dispatch loop); entries whose spec still carries it become clean
#: misses instead of unknown-field errors.
SPEC_SCHEMA_VERSION = 6

#: Built-in per-run instruction budget (the harness scale documented in
#: EXPERIMENTS.md: the paper's 200M-instruction runs scaled down
#: alongside the ~30x smaller code footprints).
DEFAULT_INSTRUCTIONS = 60_000

#: Simulation kinds a spec can describe.
KINDS = ("frontend", "processor", "dynamic", "check")


def resolve_instructions(explicit: Optional[int] = None) -> int:
    """Resolve the per-run instruction budget.

    Precedence (highest first): ``explicit`` argument, the
    ``REPRO_INSTRUCTIONS`` environment variable, then
    :data:`DEFAULT_INSTRUCTIONS`.
    """
    if explicit is None:
        raw = os.environ.get("REPRO_INSTRUCTIONS", DEFAULT_INSTRUCTIONS)
        try:
            explicit = int(raw)
        except ValueError:
            raise ValueError("REPRO_INSTRUCTIONS must be an integer, "
                             f"got {raw!r}") from None
    if explicit <= 0:
        raise ValueError("instruction budget must be positive")
    return explicit


def build_frontend_config(tc_entries: int, pb_entries: int = 0,
                          static_seed: bool = False,
                          mechanism: str = "preconstruction"
                          ) -> FrontendConfig:
    """Standard frontend configuration for a TC/budget size point.

    ``pb_entries`` is the mechanism storage budget in 64-byte entries
    whatever the mechanism — preconstruction buffers for the paper's
    mechanism, record/request storage for the prefetcher zoo — so
    equal-``pb_entries`` points are equal-area comparisons.
    """
    if mechanism == "preconstruction":
        precon = (PreconstructionConfig(buffer_entries=pb_entries)
                  if pb_entries else None)
        return FrontendConfig(
            trace_cache=TraceCacheConfig(entries=tc_entries),
            preconstruction=precon, static_seed=static_seed)
    return FrontendConfig(trace_cache=TraceCacheConfig(entries=tc_entries),
                          preconstruction=None, static_seed=static_seed,
                          mechanism=mechanism, mechanism_budget=pb_entries)


def build_processor_config(tc_entries: int, pb_entries: int = 0,
                           preprocess: bool = False) -> ProcessorConfig:
    """Standard full-processor configuration (Figures 6/8)."""
    return ProcessorConfig(
        frontend=build_frontend_config(tc_entries, pb_entries),
        backend=BackendConfig(),
        preprocess=PreprocessConfig() if preprocess else None)


@dataclass(frozen=True)
class ExperimentSpec:
    """A frozen, hashable description of one simulation point.

    ``kind`` selects the simulator: ``"frontend"`` (Figure 5 /
    Tables 1-3 metrics), ``"processor"`` (the full timing model behind
    Figures 6/8; honours ``preprocess``), ``"dynamic"`` (the adaptive
    trace-storage partitioning extension), or ``"check"`` (the
    differential-validation oracles of :mod:`repro.check`; metrics are
    per-oracle violation counts, so fuzz verdicts ride the same result
    cache as simulation points).

    ``instructions`` left as ``None`` is resolved eagerly at
    construction via :func:`resolve_instructions`, so a spec always
    carries a concrete budget and its digest never depends on ambient
    state afterwards.  ``workload_seed`` of ``None`` keeps the
    benchmark profile's own seed.
    """

    benchmark: str
    tc_entries: int = 256
    pb_entries: int = 0
    static_seed: bool = False
    preprocess: bool = False
    kind: str = "frontend"
    instructions: Optional[int] = None
    workload_seed: Optional[int] = None
    #: Frontend fill/prefetch mechanism (:mod:`repro.frontends`
    #: registry name); ``pb_entries`` is its storage budget whatever
    #: the mechanism.
    mechanism: str = "preconstruction"
    #: :data:`SPEC_SCHEMA_VERSION`, readable off any spec (run
    #: manifests record it).  Not a field: never serialised or digested.
    schema_version: ClassVar[int] = SPEC_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown spec kind {self.kind!r}; "
                             f"choose from {KINDS}")
        if not self.benchmark:
            raise ValueError("benchmark must be a non-empty name")
        if self.tc_entries <= 0:
            raise ValueError("tc_entries must be positive")
        if self.pb_entries < 0:
            raise ValueError("pb_entries must be non-negative")
        if self.preprocess and self.kind != "processor":
            raise ValueError("preprocess requires kind='processor'")
        if self.static_seed and self.kind == "processor":
            raise ValueError("static_seed is not supported with "
                             "kind='processor'")
        from repro.frontends import mechanism_names
        if self.mechanism not in mechanism_names():
            raise ValueError(f"unknown mechanism {self.mechanism!r}; "
                             f"choose from {mechanism_names()}")
        if self.mechanism != "preconstruction" \
                and self.kind in ("dynamic", "processor"):
            raise ValueError(f"kind={self.kind!r} supports only the "
                             "preconstruction mechanism")
        object.__setattr__(self, "instructions",
                           resolve_instructions(self.instructions))

    @property
    def simulator(self) -> str:
        """Always ``"scalar"``: every point runs the one dispatch loop.

        Not a field (never set, never serialised).  Its one reader is
        the ``kernel`` tally in ``perfbench/run.py``.
        """
        return "scalar"

    # ------------------------------------------------------------------
    # Derived configurations
    # ------------------------------------------------------------------
    def frontend_config(self) -> FrontendConfig:
        """The :class:`FrontendConfig` this spec describes."""
        return build_frontend_config(self.tc_entries, self.pb_entries,
                                     static_seed=self.static_seed,
                                     mechanism=self.mechanism)

    def processor_config(self) -> ProcessorConfig:
        """The :class:`ProcessorConfig` this spec describes."""
        return build_processor_config(self.tc_entries, self.pb_entries,
                                      preprocess=self.preprocess)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """The spec ``payload`` describes; ``ValueError`` names any
        key that is not a field (e.g. the pre-v6 ``simulator``)."""
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("unknown ExperimentSpec field(s): "
                             + ", ".join(unknown))
        return cls(**dict(payload))

    def digest(self, schema_version: int = SPEC_SCHEMA_VERSION) -> str:
        """Content address of this spec under ``schema_version``.

        Any field change — and any schema-version bump — yields a new
        digest, which is what invalidates stale cache entries.
        """
        payload = {"schema": schema_version, **self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable identity for progress/timing lines."""
        parts = [self.benchmark, f"tc={self.tc_entries}"]
        if self.pb_entries:
            parts.append(f"pb={self.pb_entries}")
        if self.mechanism != "preconstruction":
            parts.append(self.mechanism)
        if self.static_seed:
            parts.append("static-seed")
        if self.preprocess:
            parts.append("preprocess")
        if self.kind != "frontend":
            parts.append(self.kind)
        return " ".join(parts)


@dataclass(frozen=True)
class RunResult:
    """One simulation point's answer.

    ``metrics`` holds only JSON-serialisable values (numbers, plus
    lists for the dynamic-partition trajectory), so a result round-trips
    through the on-disk cache bit-exactly: ``json`` preserves ints and
    emits shortest round-trip reprs for floats.

    ``manifest`` is the provenance record
    (:func:`repro.obs.manifest.build_manifest`): spec digest, schema
    and package versions, seed and host info.  It is carried through
    the on-disk cache but is *not* part of result identity — entries
    produced on other hosts or package versions under the same schema
    still hit.
    """

    spec: ExperimentSpec
    metrics: dict[str, Any]
    wall_seconds: float = 0.0
    cached: bool = False
    manifest: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "spec": self.spec.to_dict(), "metrics": dict(self.metrics),
            "wall_seconds": self.wall_seconds}
        if self.manifest is not None:
            payload["manifest"] = dict(self.manifest)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], *,
                  cached: bool = False) -> "RunResult":
        manifest = payload.get("manifest")
        return cls(spec=ExperimentSpec.from_dict(payload["spec"]),
                   metrics=dict(payload["metrics"]),
                   wall_seconds=float(payload.get("wall_seconds", 0.0)),
                   cached=cached,
                   manifest=dict(manifest) if manifest else None)
