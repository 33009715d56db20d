"""Several frontend points over one trace-partition plan.

:func:`run_frontend_batch` runs each config on a shared
:class:`~repro.vector.plan.BatchPlan`, one point after another, each
through :meth:`repro.sim.FrontendSimulation.run`.  The runner does the
same one point at a time, sharing plans through
:meth:`~repro.runner.StreamCache.plan`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

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

    Results come back in ``configs`` order and equal
    ``run_frontend(image, config, traces=plan.traces)`` point for
    point.  ``obs`` (an event bus) is attached to every point; each
    point restarts its clock, so pass one only with one config.
    """
    # Imported here: the simulator imports this package's plan module.
    from repro.sim.frontend_runner import FrontendSimulation

    return [FrontendSimulation(image, config, obs).run(plan=plan)
            for config in configs]
