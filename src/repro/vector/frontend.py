"""Batched frontend runs: many sweep points, one trace-partition plan.

:func:`run_frontend_batch` advances every sweep point sharing one
stream partition through the same trace-occurrence sequence in
lockstep, consuming a precomputed :class:`~repro.vector.plan.BatchPlan`
instead of re-deriving point-independent work per point.  It drives
the one frontend dispatch loop — the same one
:meth:`repro.sim.FrontendSimulation.run` drives for a single point —
so a point's counters and cache/mechanism end states do not depend on
which batch it ran in.  The fuzz harness's ``simulator`` oracle checks
exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.branch import BimodalPredictor
from repro.vector.plan import BatchPlan

if TYPE_CHECKING:
    from repro.obs.events import ObsBus
    from repro.program import ProgramImage
    from repro.sim.config import FrontendConfig
    from repro.sim.frontend_runner import FrontendResult

__all__ = ["run_frontend_batch"]


def run_frontend_batch(image: "ProgramImage",
                       configs: Sequence["FrontendConfig"],
                       plan: BatchPlan,
                       obs: Optional["ObsBus"] = None
                       ) -> list["FrontendResult"]:
    """Run every config of ``configs`` over ``plan``'s partition.

    Results come back in ``configs`` order and are point-for-point
    equal to ``run_frontend(image, config, traces=plan.traces)``.
    ``obs`` (an event bus) is only meaningful for a batch of one — the
    bus carries a single cycle domain, and points advance on distinct
    clocks.
    """
    # Imported here: the simulator imports this package's plan module.
    from repro.sim.frontend_runner import FrontendSimulation, _dispatch

    # The one shared bimodal table: mechanisms read its bias, the
    # loop's per-occurrence training is its only writer.
    bimodal = BimodalPredictor(entries=plan.bimodal_entries)
    points = [FrontendSimulation(image, config, obs, bimodal=bimodal)
              for config in configs]
    _dispatch(points, plan, bimodal, obs)
    return [point.result() for point in points]
