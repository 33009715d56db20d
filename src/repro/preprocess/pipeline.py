"""The preprocessing pipeline attached to the fill unit (paper §6).

Applies the three optimisations of the paper's extended pipeline model,
always together and in this order, to each trace as it is constructed — demand-built traces and
preconstructed traces alike pass through the same fill unit:

1. constant propagation,
2. shift-add ALU fusion (targets the new combined ALU),
3. latency-aware instruction scheduling.

The rewritten instruction tuple replaces the trace's contents for
*timing* purposes; trace identity (start PC + branch outcomes) is
untouched, so lookup and alignment behave exactly as without
preprocessing.
"""

from __future__ import annotations

from repro.isa import Instruction
from repro.preprocess.alu_fusion import fuse_shift_adds
from repro.preprocess.constprop import propagate_constants
from repro.preprocess.scheduler import schedule_trace
from repro.trace import Trace


class Preprocessor:
    """Fill-unit preprocessing stage."""

    def __init__(self) -> None:
        self.traces_processed = 0
        self.instructions_rewritten = 0

    def process(self, trace: Trace) -> tuple[Instruction, ...]:
        """Return the *execution view* of ``trace``: the rewritten (and
        possibly reordered) instruction sequence the backend executes.

        The canonical :class:`Trace` object is left untouched — its
        ``pcs``/``instructions`` pairing drives dispatch monitoring and
        trace identity; only backend timing consumes this view.
        """
        instructions = schedule_trace(fuse_shift_adds(
            propagate_constants(trace.instructions)))
        self.traces_processed += 1
        self.instructions_rewritten += sum(
            1 for a, b in zip(trace.instructions, instructions) if a is not b)
        return instructions
