"""Trace preprocessing: fill-unit transformations of the extended
pipeline model (constant propagation, shift-add ALU fusion, intra-trace
scheduling)."""

from repro.preprocess.alu_fusion import fuse_shift_adds
from repro.preprocess.constprop import propagate_constants
from repro.preprocess.dependence import (
    DependenceGraph,
    build_dependence_graph,
)
from repro.preprocess.pipeline import Preprocessor
from repro.preprocess.scheduler import schedule_trace

__all__ = [
    "fuse_shift_adds", "propagate_constants", "DependenceGraph",
    "build_dependence_graph", "Preprocessor", "schedule_trace",
]
