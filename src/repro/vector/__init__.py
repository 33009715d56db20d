"""Shared trace-partition plans and batched frontend runs.

Every frontend point runs on a :class:`BatchPlan` — the
point-independent precomputation of one stream partition (next-trace
and bimodal replays, per-occurrence trace features), built once by
:func:`build_plan` and memoised per partition by
:meth:`~repro.runner.StreamCache.plan`.  :func:`run_frontend_batch`
runs many points sharing a plan in one lockstep pass;
:meth:`~repro.sim.FrontendSimulation.run` is the same loop for one.
"""

from repro.vector.frontend import run_frontend_batch
from repro.vector.plan import BatchPlan, build_plan, plan_key

__all__ = ["BatchPlan", "build_plan", "plan_key", "run_frontend_batch"]
