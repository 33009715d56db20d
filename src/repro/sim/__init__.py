"""Simulation drivers: configuration, statistics, frontend runner.

The frontend entry point is the unified :func:`run_frontend`; the
mechanism occupying the fill/prefetch seam comes from
:mod:`repro.frontends` (``FrontendConfig.mechanism``), and adaptive
trace-storage partitioning is the ``partition=`` keyword.
"""

from repro.sim.config import FrontendConfig
from repro.sim.dynamic_partition import (
    DynamicPartitionConfig,
    DynamicPartitionFrontend,
    PartitionEvent,
)
from repro.sim.frontend_runner import (
    FrontendResult,
    FrontendSimulation,
    run_frontend,
)
from repro.sim.stats import FrontendStats

__all__ = [
    "FrontendConfig", "FrontendResult", "FrontendSimulation", "run_frontend",
    "FrontendStats", "DynamicPartitionConfig", "DynamicPartitionFrontend",
    "PartitionEvent",
]
