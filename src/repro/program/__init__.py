"""Static program representation: blocks, CFGs, layout, linked images.

The deeper static-analysis toolkit over linked images (CFG recovery,
dominators/loops, call graph, verifier, region seeding) lives one layer
up, in :mod:`repro.static`.
"""

from repro.program.analysis import (
    StaticStats,
    instruction_successors,
    reachable_addresses,
    static_stats,
)
from repro.program.block import BasicBlock, BodyItem, Call, TermKind, Terminator
from repro.program.cfg import ControlFlowGraph, Procedure
from repro.program.image import CODE_BASE, DATA_BASE, ProgramImage
from repro.program.layout import DataSegment, LayoutError, Reloc, layout

__all__ = [
    "StaticStats", "instruction_successors",
    "reachable_addresses", "static_stats",
    "BasicBlock", "BodyItem", "Call", "TermKind", "Terminator",
    "ControlFlowGraph", "Procedure", "CODE_BASE", "DATA_BASE",
    "ProgramImage", "DataSegment", "LayoutError", "Reloc", "layout",
]
