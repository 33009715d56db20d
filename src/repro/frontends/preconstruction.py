"""Trace preconstruction as a frontend mechanism.

:class:`PreconstructionMechanism` *is* the paper's engine
(:class:`repro.core.PreconstructionEngine`) registered behind the
mechanism interface: the engine's ``observe_dispatch``, ``tick`` and
``attach_obs`` are the seam's hooks as they stand, and :meth:`probe`
is its buffer probe.  ``FrontendResult.preconstruction`` and
``ProcessorResult.preconstruction`` are this object, so the
dynamic-partition extension repartitions its buffers in place.
"""

from __future__ import annotations

from typing import ClassVar, Optional

from repro.core import PreconstructionEngine
from repro.frontends.base import (
    FrontendMechanism,
    MechanismContext,
    register_mechanism,
)
from repro.trace import TraceID


@register_mechanism
class PreconstructionMechanism(PreconstructionEngine, FrontendMechanism):
    """The paper's mechanism: idle-cycle-funded trace preconstruction."""

    name: ClassVar[str] = "preconstruction"
    icache_client: ClassVar[str] = "preconstruct"

    @classmethod
    def build(cls, context: MechanismContext
              ) -> Optional["PreconstructionMechanism"]:
        if context.budget_entries <= 0:
            return None
        static_seeds: tuple[int, ...] = ()
        if context.static_seed:
            from repro.static.seeding import compute_static_seeds
            static_seeds = tuple(
                s.pc for s in compute_static_seeds(context.image))
        return cls(image=context.image, icache=context.icache,
                   bimodal=context.bimodal, trace_cache=context.trace_cache,
                   buffer_entries=context.budget_entries,
                   config=context.preconstruction,
                   selection=context.selection,
                   static_seeds=static_seeds)

    def probe(self, trace_id: TraceID) -> bool:
        return self.probe_and_promote(trace_id) is not None
